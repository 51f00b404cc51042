package cpp

import (
	"fmt"
	"strings"
)

// NodeKind classifies AST nodes. The AST is deliberately generic — a kind, a
// value, and children — so every pass over it (printing, normalization,
// inlining, interpretation) walks one node type.
type NodeKind int

// Node kinds.
const (
	KindFile NodeKind = iota
	KindFunction
	KindParamList
	KindParam
	KindBlock
	KindDecl      // declaration statement: type + declarators
	KindExprStmt  // expression statement
	KindIf        // children: cond, then, [else]
	KindSwitch    // children: cond, body
	KindCase      // children: label expr, then statements
	KindDefault   // children: statements
	KindFor       // children: init, cond, post, body
	KindWhile     // children: cond, body
	KindDoWhile   // children: body, cond
	KindReturn    // children: [expr]
	KindBreak     //
	KindContinue  //
	KindBinary    // value: operator; children: lhs, rhs
	KindUnary     // value: operator; children: operand
	KindPostfix   // value: operator (++/--); children: operand
	KindAssign    // value: operator (=, +=, ...); children: lhs, rhs
	KindTernary   // children: cond, then, else
	KindCall      // children: callee, args...
	KindMember    // value: "." or "->"; children: base, name
	KindIndex     // children: base, index
	KindQualified // value: joined "A::B::c"; no children
	KindIdent     // value: name
	KindNumber    // value: literal text
	KindString    // value: literal text with quotes
	KindChar      // value: literal text with quotes
	KindCast      // value: cast keyword or "" for C cast; children: type, expr
	KindType      // value: canonical type text
	KindInit      // brace initializer; children: elements
	KindEmpty     // empty statement ";"
)

var nodeKindNames = map[NodeKind]string{
	KindFile: "File", KindFunction: "Function", KindParamList: "ParamList",
	KindParam: "Param", KindBlock: "Block", KindDecl: "Decl",
	KindExprStmt: "ExprStmt", KindIf: "If", KindSwitch: "Switch",
	KindCase: "Case", KindDefault: "Default", KindFor: "For",
	KindWhile: "While", KindDoWhile: "DoWhile", KindReturn: "Return",
	KindBreak: "Break", KindContinue: "Continue", KindBinary: "Binary",
	KindUnary: "Unary", KindPostfix: "Postfix", KindAssign: "Assign",
	KindTernary: "Ternary", KindCall: "Call", KindMember: "Member",
	KindIndex: "Index", KindQualified: "Qualified", KindIdent: "Ident",
	KindNumber: "Number", KindString: "String", KindChar: "Char",
	KindCast: "Cast", KindType: "Type", KindInit: "Init", KindEmpty: "Empty",
}

func (k NodeKind) String() string {
	if s, ok := nodeKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is a generic AST node.
type Node struct {
	Kind     NodeKind
	Value    string
	Children []*Node
	Pos      Pos
}

// NewNode constructs a node.
func NewNode(kind NodeKind, value string, children ...*Node) *Node {
	return &Node{Kind: kind, Value: value, Children: children}
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Value: n.Value, Pos: n.Pos}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Equal reports deep structural equality.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Value != m.Value || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// String renders a compact s-expression form, useful in tests and debugging.
func (n *Node) String() string {
	var b strings.Builder
	n.sexpr(&b)
	return b.String()
}

func (n *Node) sexpr(b *strings.Builder) {
	if n == nil {
		b.WriteString("nil")
		return
	}
	if n.IsLeaf() {
		if n.Value != "" {
			fmt.Fprintf(b, "%s(%s)", n.Kind, n.Value)
		} else {
			b.WriteString(n.Kind.String())
		}
		return
	}
	b.WriteString("(")
	b.WriteString(n.Kind.String())
	if n.Value != "" {
		fmt.Fprintf(b, "[%s]", n.Value)
	}
	for _, c := range n.Children {
		b.WriteString(" ")
		c.sexpr(b)
	}
	b.WriteString(")")
}

// FunctionName returns the declared name of a KindFunction node
// ("getRelocType" from "unsigned X::getRelocType(...)"), or "".
func (n *Node) FunctionName() string {
	if n == nil || n.Kind != KindFunction {
		return ""
	}
	// Value holds the qualified declarator; the interface name is the last
	// :: component.
	parts := strings.Split(n.Value, "::")
	return parts[len(parts)-1]
}
