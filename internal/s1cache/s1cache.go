// Package s1cache persists Stage 1 artifacts — function templates and
// their mined feature schemas — in a content-addressed on-disk cache, so
// repeated pipeline builds over an unchanged corpus (CLI runs, the bench
// harness, the eval loop) skip templatization and feature selection
// entirely.
//
// The cache is sharded per function group: each group's template and
// features live in their own entry (`<key>.s1g`), addressed by a SHA-256
// over only that group's inputs — the function identity, the group's
// training targets, their rendered sources, the per-target slice of the
// description tree, and the shared core tree (see GroupKey). Editing one
// target therefore re-keys only the groups that include it; every other
// group still hits. A fleet-level manifest (`<key>.s1m`, see FleetKey)
// records which group entries a build used, providing stats and garbage
// collection of superseded entries.
//
// Files follow the checkpoint discipline of internal/core: a
// self-verifying header (magic, format version, payload length, SHA-256
// of the payload) over a gob payload, written atomically (temp file,
// fsync, rename), so torn or bit-flipped entries surface as ErrCorrupt
// and callers rebuild exactly the damaged group.
package s1cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"

	"vega/internal/feature"
	"vega/internal/tablegen"
	"vega/internal/template"
)

var (
	// ErrMiss marks a key with no cache entry.
	ErrMiss = errors.New("s1cache: miss")
	// ErrCorrupt marks an entry that failed self-verification; callers
	// should rebuild and overwrite only that entry.
	ErrCorrupt = errors.New("s1cache: entry corrupt")
)

var magic = [8]byte{'V', 'E', 'G', 'A', 'S', '1', 'C', 'H'}

// formatVersion is bumped whenever the entry layout or the meaning of
// cached artifacts changes; it participates in every key, so
// stale-format entries are simply never addressed. Version 2 introduced
// per-group entries and the fleet manifest.
const formatVersion = 2

// headerLen is magic(8) + version(4) + payload length(8) + sha256(32).
const headerLen = 8 + 4 + 8 + sha256.Size

// GroupEntry is one cached function group: everything core rebuilds per
// group during Stage 1 except the live extractor. The interface function
// itself is stored by name and re-resolved against corpus.FuncByName on
// load (it carries a generator closure that cannot be serialized).
type GroupEntry struct {
	FuncName string
	Targets  []string
	FT       *template.FunctionTemplate
	TF       *feature.TemplateFeatures
}

// Manifest ties one build's group entries together under the fleet key:
// the group keys a warm rebuild will look up, in corpus.AllFuncs order.
type Manifest struct {
	Groups []ManifestGroup
}

// ManifestGroup names one group entry.
type ManifestGroup struct {
	FuncName string
	Key      string
}

// GroupKey computes the content address of one function group: a
// SHA-256 over the cache format version, the function identity, and per
// training target its name, its rendered source for this function, and
// its description-tree hash, plus the shared core-tree hash. Only edits
// that can change this group's template or features change the key.
func GroupKey(fnName, module string, targets, sources []string, targetHash map[string]string, coreHash string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|fn|%s|%s\n", formatVersion, fnName, module)
	for i, t := range targets {
		src := ""
		if i < len(sources) {
			src = sources[i]
		}
		fmt.Fprintf(h, "tgt|%s|td=%s|%d|", t, targetHash[t], len(src))
		h.Write([]byte(src))
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "core|%s\n", coreHash)
	return hex.EncodeToString(h.Sum(nil))
}

// FleetKey computes the manifest address for a fleet + function set: the
// cache format version, every interface function, and every target's
// name and eval role. Split parameters are deliberately excluded — the
// train/verify split is recomputed from the cached groups on every load.
func FleetKey(funcs []string, targets []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|fleet\n", formatVersion)
	for _, f := range funcs {
		fmt.Fprintf(h, "fn|%s\n", f)
	}
	for _, t := range targets {
		fmt.Fprintf(h, "tgt|%s\n", t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TreeHashes classifies the source tree into the shared core and
// per-target slices, hashing each bucket: paths under lib/Target/<T>/
// and llvm/BinaryFormat/ELFRelocs/<T>.def belong to target T, everything
// else to the core. targets lists the fleet's target names. The hashes
// are memoized on the tree per target list (tree.Add drops them), so
// repeated builds over one shared tree hash it once; byTarget is the
// caller's own copy.
func TreeHashes(tree *tablegen.SourceTree, targets []string) (core string, byTarget map[string]string) {
	type hashes struct {
		core     string
		byTarget map[string]string
	}
	key := "s1cache.TreeHashes\x00" + strings.Join(targets, "\x00")
	h := tree.Memo(key, func() any {
		core, byTarget := treeHashes(tree, targets)
		return hashes{core, byTarget}
	}).(hashes)
	return h.core, maps.Clone(h.byTarget)
}

// treeHashes computes TreeHashes.
func treeHashes(tree *tablegen.SourceTree, targets []string) (core string, byTarget map[string]string) {
	owner := func(p string) string {
		if rest, ok := strings.CutPrefix(p, "lib/Target/"); ok {
			if t, _, ok := strings.Cut(rest, "/"); ok {
				return t
			}
		}
		if rest, ok := strings.CutPrefix(p, "llvm/BinaryFormat/ELFRelocs/"); ok {
			if t, ok := strings.CutSuffix(rest, ".def"); ok {
				return t
			}
		}
		return ""
	}
	known := make(map[string]bool, len(targets))
	for _, t := range targets {
		known[t] = true
	}
	sums := map[string]*bytes.Buffer{"": {}}
	for _, p := range tree.Paths() { // Paths is sorted: buckets are deterministic
		t := owner(p)
		if !known[t] {
			t = "" // unknown owners count as core, never silently dropped
		}
		buf := sums[t]
		if buf == nil {
			buf = &bytes.Buffer{}
			sums[t] = buf
		}
		content, _ := tree.Content(p)
		fmt.Fprintf(buf, "file|%s|%d|%s\n", p, len(content), content)
	}
	byTarget = make(map[string]string, len(sums))
	for t, buf := range sums {
		sum := sha256.Sum256(buf.Bytes())
		if t == "" {
			core = hex.EncodeToString(sum[:])
		} else {
			byTarget[t] = hex.EncodeToString(sum[:])
		}
	}
	return core, byTarget
}

// Cache is a directory of content-addressed Stage 1 entries.
type Cache struct {
	Dir string
}

// groupPath maps a group key to its entry file.
func (c *Cache) groupPath(key string) string {
	return filepath.Join(c.Dir, key+".s1g")
}

// manifestPath maps a fleet key to its manifest file.
func (c *Cache) manifestPath(key string) string {
	return filepath.Join(c.Dir, key+".s1m")
}

// readBlob reads and verifies one self-checking file, returning the gob
// payload. ErrMiss when absent, ErrCorrupt (wrapped) on any damage.
func readBlob(path, key string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("s1cache: load: %w", err)
	}
	if len(raw) < headerLen || !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, key)
	}
	if v := binary.BigEndian.Uint32(raw[8:12]); v != formatVersion {
		return nil, fmt.Errorf("%w: %s: version %d", ErrCorrupt, key, v)
	}
	plen := binary.BigEndian.Uint64(raw[12:20])
	payload := raw[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: %s: payload %d bytes, header says %d",
			ErrCorrupt, key, len(payload), plen)
	}
	var want [sha256.Size]byte
	copy(want[:], raw[20:headerLen])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, key)
	}
	return payload, nil
}

// writeBlob writes one self-checking file atomically: header + payload
// into a temp file in the cache directory, fsync, rename.
func (c *Cache) writeBlob(path, key string, payload []byte) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, formatVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(c.Dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("s1cache: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("s1cache: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	return nil
}

// LoadGroup reads and verifies one group entry. Returns ErrMiss when no
// entry exists and ErrCorrupt (wrapped) when one exists but fails
// verification or decoding.
func (c *Cache) LoadGroup(key string) (*GroupEntry, error) {
	payload, err := readBlob(c.groupPath(key), key)
	if err != nil {
		return nil, err
	}
	var e GroupEntry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	// Relink the template pointer the encoder detached (see StoreGroup).
	if e.TF != nil {
		e.TF.FT = e.FT
	}
	return &e, nil
}

// StoreGroup writes one group entry atomically, replacing any existing
// entry for the same key.
func (c *Cache) StoreGroup(key string, e *GroupEntry) error {
	// Detach the TF's back-pointer to its template before encoding so the
	// gob stream carries one copy of the template, not two; LoadGroup
	// relinks. The shallow copy keeps the caller's structs untouched.
	enc := *e
	if enc.TF != nil {
		tf := *enc.TF
		tf.FT = nil
		enc.TF = &tf
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&enc); err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	return c.writeBlob(c.groupPath(key), key, payload.Bytes())
}

// LoadManifest reads and verifies the manifest for a fleet key.
func (c *Cache) LoadManifest(key string) (*Manifest, error) {
	payload, err := readBlob(c.manifestPath(key), key)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	return &m, nil
}

// StoreManifest writes the manifest for a fleet key and garbage-collects
// group entries the previous manifest for the same fleet referenced but
// the new one no longer does (superseded by re-keyed groups).
func (c *Cache) StoreManifest(key string, m *Manifest) error {
	prev, err := c.LoadManifest(key)
	if err != nil && !errors.Is(err, ErrMiss) && !errors.Is(err, ErrCorrupt) {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		return fmt.Errorf("s1cache: store: %w", err)
	}
	if err := c.writeBlob(c.manifestPath(key), key, payload.Bytes()); err != nil {
		return err
	}
	if prev != nil {
		live := make(map[string]bool, len(m.Groups))
		for _, g := range m.Groups {
			live[g.Key] = true
		}
		for _, g := range prev.Groups {
			if !live[g.Key] {
				os.Remove(c.groupPath(g.Key)) // best-effort GC
			}
		}
	}
	return nil
}
