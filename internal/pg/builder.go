package pg

import "fmt"

// Builder constructs company graphs by name, the way the paper's running
// examples (Figures 1 and 2) are written: companies and persons are referred
// to by identifiers like "C4" or "P1", and shareholding edges by
// (owner, owned, share) triples.
//
// The error-returning methods (AddNode, AddOwnership, PersonWith, Lookup)
// are the primary API — use them when the input is untrusted (ETL, request
// payloads). Own and ID are Must-style wrappers that panic on
// malformed input; they keep the chained literal style of the figure
// constructors and tests, where a failure is a programming error.
type Builder struct {
	g     *Graph
	byKey map[string]NodeID
}

// NewBuilder returns a Builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{g: New(), byKey: make(map[string]NodeID)}
}

// Company ensures a company node named key exists and returns its ID.
func (b *Builder) Company(key string) NodeID {
	return b.node(key, LabelCompany)
}

// Person ensures a person node named key exists and returns its ID.
func (b *Builder) Person(key string) NodeID {
	return b.node(key, LabelPerson)
}

// PersonWith adds a person node named key with the given properties over
// its name. It reports an error, and leaves the graph as it was, when key
// already names a node or a value is outside the four property kinds: a
// graph changes a node it holds only through its mutator, and a person's
// properties are set once, when it is added.
func (b *Builder) PersonWith(key string, props Properties) (NodeID, error) {
	if id, exists := b.byKey[key]; exists {
		return 0, fmt.Errorf("pg: builder: node %q already exists as %s", key, b.g.Node(id).Label)
	}
	var rb RecordBuilder
	rb.Str("name", key)
	for k, v := range props {
		if err := rb.Set(k, v); err != nil {
			return 0, fmt.Errorf("pg: builder: person %q: %w", key, err)
		}
	}
	id := b.g.AddNode(LabelPerson, rb.Record())
	b.byKey[key] = id
	return id, nil
}

// AddNode ensures a node named key with the given label exists and returns
// its ID. It reports an error when the key already names a node with a
// different label — the mistake the panicking Company/Person helpers can
// only crash on.
func (b *Builder) AddNode(key string, label Label) (NodeID, error) {
	if id, ok := b.byKey[key]; ok {
		if got := b.g.Node(id).Label; got != label {
			return 0, fmt.Errorf("pg: builder: node %q already exists with label %s, requested %s", key, got, label)
		}
		return id, nil
	}
	id := b.g.AddNode(label, Properties{"name": key})
	b.byKey[key] = id
	return id, nil
}

func (b *Builder) node(key string, label Label) NodeID {
	id, err := b.AddNode(key, label)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// AddOwnership adds a shareholding edge owner → owned with share w. Both
// endpoints must already exist (create them with AddNode / Company / Person
// first), mirroring the paper convention that node type is explicit.
// Unknown names are reported as errors, and so is a share the graph
// refuses (Graph.AddShare).
func (b *Builder) AddOwnership(owner, owned string, w float64) (EdgeID, error) {
	from, ok := b.byKey[owner]
	if !ok {
		return 0, fmt.Errorf("pg: builder: unknown owner %q", owner)
	}
	to, ok := b.byKey[owned]
	if !ok {
		return 0, fmt.Errorf("pg: builder: unknown owned company %q", owned)
	}
	return b.g.AddShare(from, to, w)
}

// Own is AddOwnership in chained Must style: it panics on malformed input.
func (b *Builder) Own(owner, owned string, w float64) *Builder {
	if _, err := b.AddOwnership(owner, owned, w); err != nil {
		panic(err.Error())
	}
	return b
}

// Lookup returns the node ID for a named node, reporting whether it exists.
func (b *Builder) Lookup(key string) (NodeID, bool) {
	id, ok := b.byKey[key]
	return id, ok
}

// ID returns the node ID for a named node; it panics if the name is unknown.
// Use Lookup when the name comes from untrusted input.
func (b *Builder) ID(key string) NodeID {
	id, ok := b.Lookup(key)
	if !ok {
		panic(fmt.Sprintf("pg: builder: unknown node %q", key))
	}
	return id
}

// Graph returns the graph under construction.
func (b *Builder) Graph() *Graph { return b.g }

// Figure1 builds the ownership graph of Figure 1 of the paper:
//
//	P1 owns 80% of C and 75% of D; D owns 40% of E and 20% of F;
//	E owns 40% of F; P1 owns 20% of E; P2 owns 60% of G; G owns 60% of H;
//	H owns 40% of I; P2 owns 50% of I; H owns 10% of I is folded into the
//	40%+10% split; F owns 20% of L and I owns 40% of L (so that P1 and P2
//	together control L at 60%, per the family-business discussion in §1).
func Figure1() (*Graph, *Builder) {
	b := NewBuilder()
	for _, c := range []string{"C", "D", "E", "F", "G", "H", "I", "L"} {
		b.Company(c)
	}
	b.Person("P1")
	b.Person("P2")
	b.Own("P1", "C", 0.8).
		Own("P1", "D", 0.75).
		Own("D", "E", 0.4).
		Own("D", "F", 0.2).
		Own("E", "F", 0.4).
		Own("P1", "E", 0.2).
		Own("P2", "G", 0.6).
		Own("G", "H", 0.6).
		Own("H", "I", 0.4).
		Own("P2", "I", 0.5).
		Own("F", "L", 0.2).
		Own("I", "L", 0.4)
	return b.Graph(), b
}

// Figure2 builds the Italian company graph of Figure 2 used by Examples 2.4
// and 2.7:
//
//   - P1 owns 80% of C4 (so P1 controls C4 directly);
//   - P2 owns 60% of C5 and 55% of C6; C5 and C6 jointly own C7 (30% + 25%),
//     so P2 controls C7 via C5 and C6;
//   - P3 owns 40% of C4 and 50% of C6 (close link by Def 2.6(iii), t = 0.2);
//   - C4 owns 40% of C5, and C5 owns 50% of C7, giving Φ(C4, C7) = 0.2
//     (close link by Def 2.6(i)).
func Figure2() (*Graph, *Builder) {
	b := NewBuilder()
	for _, c := range []string{"C4", "C5", "C6", "C7"} {
		b.Company(c)
	}
	for _, p := range []string{"P1", "P2", "P3"} {
		b.Person(p)
	}
	b.Own("P1", "C4", 0.8).
		Own("P2", "C5", 0.6).
		Own("P2", "C6", 0.55).
		Own("C5", "C7", 0.5).
		Own("C6", "C7", 0.25).
		Own("P3", "C4", 0.4).
		Own("P3", "C6", 0.5).
		Own("C4", "C5", 0.4)
	return b.Graph(), b
}
