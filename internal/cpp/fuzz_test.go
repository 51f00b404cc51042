package cpp_test

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"vega/internal/corpus"
	"vega/internal/cpp"
)

// FuzzParseNormalize drives the path every verification runs on
// model-rendered text: Lex, ParseFunction, then Normalize on what parsed.
// Seeded from the standard corpus's reference functions. Whatever the
// input, no stage may panic or run long, and a rejected input must come
// back as a *cpp.SyntaxError, the same one from Lex and from the parse.
func FuzzParseNormalize(f *testing.F) {
	c, err := corpus.Build()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range c.Backends {
		for _, name := range slices.Sorted(maps.Keys(b.Funcs)) {
			f.Add(b.Sources[name])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		_, lexErr := cpp.Lex(src)
		fn, err := cpp.ParseFunction(src)
		var se *cpp.SyntaxError
		switch {
		case err != nil && !errors.As(err, &se):
			t.Fatalf("ParseFunction: untyped error %T: %v", err, err)
		case lexErr != nil && (err == nil || err.Error() != lexErr.Error()):
			t.Fatalf("Lex rejected the text (%v), ParseFunction returned %v", lexErr, err)
		case err == nil && fn == nil:
			t.Fatal("ParseFunction returned neither a function nor an error")
		case err == nil:
			cpp.Normalize(fn)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%d bytes took %v", len(src), d)
		}
	})
}
