package search

import (
	"fmt"
	"sort"
	"strings"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/graph"
)

// This file materializes the paper's inlining tree (Section 3.2, Figure 6)
// as an explicit data structure. The exhaustive search itself uses the
// fused lazy recursion in search.go — materialization costs memory
// proportional to the space size — but the explicit tree is invaluable for
// inspection, teaching, and testing: Figure 6 can be printed, the three
// node kinds are visible, and Algorithm 1 can be run over the structure
// and checked against the fused search.

// NodeKind distinguishes the paper's three inlining-tree node kinds.
type NodeKind uint8

// Inlining-tree node kinds (paper Section 3.2).
const (
	LeafNode       NodeKind = iota // a (partial) inlining configuration
	BinaryNode                     // assigns both labels to a partition edge
	ComponentsNode                 // splits independent inlining components
)

func (k NodeKind) String() string {
	switch k {
	case LeafNode:
		return "leaf"
	case BinaryNode:
		return "binary"
	case ComponentsNode:
		return "components"
	}
	return "?"
}

// TreeNode is one node of a materialized inlining tree.
type TreeNode struct {
	Kind NodeKind

	// Edge is the partition edge of a BinaryNode; NotInlined and Inlined
	// are its two subtrees (paper: sibling subtrees assign opposite labels
	// to the same edge).
	Edge       int
	NotInlined *TreeNode
	Inlined    *TreeNode

	// Children are the independent inlining components of a ComponentsNode.
	Children []*TreeNode

	// Decisions is the configuration accumulated on the path from the
	// root; complete at leaves of the outermost component.
	Decisions *callgraph.Config

	// Nodes is the remaining function/node set of the (merged) call graph
	// at this point, for rendering Figure 6-style labels.
	Nodes []string
}

// ErrTreeTooLarge is returned when materialization would exceed the cap.
var ErrTreeTooLarge = fmt.Errorf("search: inlining tree exceeds node cap")

// BuildTree materializes the inlining tree of the call graph, failing if
// it would exceed maxNodes tree nodes (0 means 1<<16).
func BuildTree(g *callgraph.Graph, maxNodes int) (*TreeNode, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 16
	}
	b := &treeBuilder{g: g, budget: maxNodes}
	root, err := b.build(g.Undirected(), callgraph.NewConfig())
	if err != nil {
		return nil, err
	}
	return root, nil
}

type treeBuilder struct {
	g       *callgraph.Graph
	budget  int
	scratch graph.Scratch
}

func (tb *treeBuilder) spend() error {
	tb.budget--
	if tb.budget < 0 {
		return ErrTreeTooLarge
	}
	return nil
}

func (tb *treeBuilder) build(mg *graph.Multigraph, decided *callgraph.Config) (*TreeNode, error) {
	if err := tb.spend(); err != nil {
		return nil, err
	}
	if len(mg.Edges) == 0 {
		return &TreeNode{
			Kind:      LeafNode,
			Decisions: decided.Clone(),
			Nodes:     tb.mergedNodeNames(mg, decided),
		}, nil
	}
	if subs := edgeComponents(&tb.scratch, mg); subs != nil {
		node := &TreeNode{
			Kind:      ComponentsNode,
			Decisions: decided.Clone(),
			Nodes:     tb.mergedNodeNames(mg, decided),
		}
		for i := range subs {
			child, err := tb.build(&subs[i], decided)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		}
		return node, nil
	}
	e := selectPartitionEdge(&tb.scratch, mg)
	not, err := tb.build(mg.RemoveEdge(e.ID), decided)
	if err != nil {
		return nil, err
	}
	inl, err := tb.build(mg.ContractEdge(e.ID), decided.Clone().Set(e.ID, true))
	if err != nil {
		return nil, err
	}
	return &TreeNode{
		Kind:       BinaryNode,
		Edge:       e.ID,
		NotInlined: not,
		Inlined:    inl,
		Decisions:  decided.Clone(),
		Nodes:      tb.mergedNodeNames(mg, decided),
	}, nil
}

// mergedNodeNames renders the current call-graph nodes with inline-merged
// functions concatenated, Figure 6 style ("F, G, KL, H, I").
func (tb *treeBuilder) mergedNodeNames(mg *graph.Multigraph, decided *callgraph.Config) []string {
	// Union-find over the original nodes, merging across inlined edges.
	parent := make([]int, len(tb.g.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range tb.g.Edges {
		if decided.Inline(e.Site) {
			a, b := find(tb.g.Index[e.Caller]), find(tb.g.Index[e.Callee])
			if a != b {
				parent[b] = a
			}
		}
	}
	groups := make(map[int][]string)
	for i, name := range tb.g.Nodes {
		r := find(i)
		groups[r] = append(groups[r], name)
	}
	var out []string
	for _, names := range groups {
		sort.Strings(names)
		out = append(out, strings.Join(names, "+"))
	}
	sort.Strings(out)
	return out
}

// Count returns the number of leaves and components nodes: the evaluation
// count of the recursively partitioned space (Section 3.2).
func (n *TreeNode) Count() (leaves, components int) {
	switch n.Kind {
	case LeafNode:
		return 1, 0
	case BinaryNode:
		l1, c1 := n.NotInlined.Count()
		l2, c2 := n.Inlined.Count()
		return l1 + l2, c1 + c2
	default:
		l, c := 0, 1
		for _, ch := range n.Children {
			cl, cc := ch.Count()
			l += cl
			c += cc
		}
		return l, c
	}
}

// Evaluate runs Algorithm 1 over the materialized tree.
func (n *TreeNode) Evaluate(c *compile.Compiler) (*callgraph.Config, int) {
	switch n.Kind {
	case LeafNode:
		cfg := n.Decisions.Clone()
		return cfg, c.Size(cfg)
	case BinaryNode:
		cfg1, s1 := n.NotInlined.Evaluate(c)
		cfg2, s2 := n.Inlined.Evaluate(c)
		if s1 <= s2 {
			return cfg1, s1
		}
		return cfg2, s2
	default:
		combined := n.Decisions.Clone()
		for _, ch := range n.Children {
			sub, _ := ch.Evaluate(c)
			combined.Merge(sub)
		}
		return combined, c.Size(combined)
	}
}

// String renders the tree in an indented Figure 6-like form.
func (n *TreeNode) String() string {
	var sb strings.Builder
	n.render(&sb, "", "")
	return sb.String()
}

func (n *TreeNode) render(sb *strings.Builder, prefix, label string) {
	nodes := strings.Join(n.Nodes, ", ")
	switch n.Kind {
	case LeafNode:
		fmt.Fprintf(sb, "%s%sleaf {%s} %s\n", prefix, label, nodes, n.Decisions)
	case BinaryNode:
		fmt.Fprintf(sb, "%s%s(%s) partition on s%d\n", prefix, label, nodes, n.Edge)
		n.NotInlined.render(sb, prefix+"  ", fmt.Sprintf("s%d=no-inline: ", n.Edge))
		n.Inlined.render(sb, prefix+"  ", fmt.Sprintf("s%d=inline: ", n.Edge))
	default:
		fmt.Fprintf(sb, "%s%s[%s] %d independent components\n", prefix, label, nodes, len(n.Children))
		for i, ch := range n.Children {
			ch.render(sb, prefix+"  ", fmt.Sprintf("component %d: ", i))
		}
	}
}
