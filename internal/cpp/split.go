package cpp

// Statement is the paper's unit of code: a one-line fragment that ends with
// one of "{", ";" or ":". A function body is flattened into a statement
// sequence; compound statements contribute their header line plus the
// statements of their bodies, and closing braces contribute "}" lines so
// the sequence round-trips to well-formed code.
type Statement struct {
	Text  string // canonical one-line rendering
	Node  *Node  // owning AST node (nil for closing braces)
	Close bool   // true for a synthetic "}" line
	Depth int    // nesting depth inside the function body
}

// SplitFunction flattens a parsed function definition into the paper's
// statement sequence. The first statement is the function definition line
// itself ("unsigned T::getRelocType(...) {"); the last is its closing "}".
func SplitFunction(fn *Node) []Statement {
	if fn == nil || fn.Kind != KindFunction {
		return nil
	}
	var out []Statement
	out = append(out, Statement{Text: FunctionHead(fn), Node: fn, Depth: 0})
	body := fn.Children[2]
	for _, st := range body.Children {
		out = flatten(out, st, 1)
	}
	out = append(out, Statement{Text: "}", Close: true, Depth: 0})
	return out
}

// FunctionHead renders the definition line of a function.
func FunctionHead(fn *Node) string {
	ret, params := fn.Children[0], fn.Children[1]
	head := ret.Value + " " + fn.Value + "("
	for i, p := range params.Children {
		if i > 0 {
			head += ", "
		}
		head += p.Children[0].Value
		if p.Value != "" {
			head += " " + p.Value
		}
	}
	return head + ") {"
}

func flatten(out []Statement, n *Node, depth int) []Statement {
	switch n.Kind {
	case KindBlock:
		out = append(out, Statement{Text: "{", Node: n, Depth: depth})
		for _, st := range n.Children {
			out = flatten(out, st, depth+1)
		}
		out = append(out, Statement{Text: "}", Close: true, Depth: depth})
	case KindIf:
		out = append(out, Statement{Text: StmtHead(n), Node: n, Depth: depth})
		out = flattenBody(out, n.Children[1], depth+1)
		if len(n.Children) == 3 {
			out = append(out, Statement{Text: "} else {", Node: n, Depth: depth})
			out = flattenBody(out, n.Children[2], depth+1)
		}
		out = append(out, Statement{Text: "}", Close: true, Depth: depth})
	case KindSwitch:
		out = append(out, Statement{Text: StmtHead(n), Node: n, Depth: depth})
		for _, c := range n.Children[1].Children {
			out = flatten(out, c, depth)
		}
		out = append(out, Statement{Text: "}", Close: true, Depth: depth})
	case KindCase:
		out = append(out, Statement{Text: StmtHead(n), Node: n, Depth: depth})
		for _, st := range n.Children[1:] {
			out = flatten(out, st, depth+1)
		}
	case KindDefault:
		out = append(out, Statement{Text: "default:", Node: n, Depth: depth})
		for _, st := range n.Children {
			out = flatten(out, st, depth+1)
		}
	case KindFor, KindWhile:
		out = append(out, Statement{Text: StmtHead(n), Node: n, Depth: depth})
		out = flattenBody(out, n.Children[len(n.Children)-1], depth+1)
		out = append(out, Statement{Text: "}", Close: true, Depth: depth})
	case KindDoWhile:
		out = append(out, Statement{Text: "do {", Node: n, Depth: depth})
		out = flattenBody(out, n.Children[0], depth+1)
		out = append(out, Statement{Text: "} while (" + ExprString(n.Children[1]) + ");", Close: true, Depth: depth})
	default:
		out = append(out, Statement{Text: StmtHead(n), Node: n, Depth: depth})
	}
	return out
}

// flattenBody flattens a compound statement's body without emitting the
// enclosing block's own braces (the header/footer lines own them).
func flattenBody(out []Statement, n *Node, depth int) []Statement {
	if n.Kind == KindBlock {
		for _, st := range n.Children {
			out = flatten(out, st, depth)
		}
		return out
	}
	return flatten(out, n, depth)
}
