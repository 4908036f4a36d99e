package pg

import (
	"math"
	"strings"
	"testing"
)

func TestBuilderAddOwnershipErrors(t *testing.T) {
	b := NewBuilder()
	b.Company("C1")
	b.Company("C2")

	if _, err := b.AddOwnership("C1", "C2", 0.4); err != nil {
		t.Fatalf("valid ownership rejected: %v", err)
	}
	if _, err := b.AddOwnership("Cx", "C2", 0.4); err == nil || !strings.Contains(err.Error(), "unknown owner") {
		t.Errorf("unknown owner: err = %v", err)
	}
	if _, err := b.AddOwnership("C1", "Cx", 0.4); err == nil || !strings.Contains(err.Error(), "unknown owned") {
		t.Errorf("unknown owned: err = %v", err)
	}
	if _, err := b.AddOwnership("C1", "C2", 1.5); err == nil {
		t.Error("share > 1 accepted")
	}
	if _, err := b.AddOwnership("C1", "C2", -0.1); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := b.AddOwnership("C1", "C2", math.NaN()); err == nil {
		t.Error("NaN share accepted")
	}
}

func TestBuilderAddNodeLabelConflict(t *testing.T) {
	b := NewBuilder()
	id, err := b.AddNode("X", LabelCompany)
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.AddNode("X", LabelCompany)
	if err != nil || again != id {
		t.Errorf("re-adding same node: id=%v err=%v, want %v, nil", again, err, id)
	}
	if _, err := b.AddNode("X", LabelPerson); err == nil {
		t.Error("label conflict accepted")
	}
}

func TestBuilderLookup(t *testing.T) {
	b := NewBuilder()
	id := b.Company("C1")
	if got, ok := b.Lookup("C1"); !ok || got != id {
		t.Errorf("Lookup(C1) = %v, %v", got, ok)
	}
	if _, ok := b.Lookup("missing"); ok {
		t.Error("Lookup(missing) reported ok")
	}
}

// The chained Must-style helpers stay panicking — they back the figure
// constructors and test literals where malformed input is a programming
// error.
func TestBuilderOwnPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Own with unknown node did not panic")
		}
	}()
	NewBuilder().Own("nope", "also-nope", 0.5)
}

// TestBuilderPersonWith: the properties are set over the person's name
// before the node is added, and a key that names a node already — a person
// or a company — is refused and leaves the graph as it was.
func TestBuilderPersonWith(t *testing.T) {
	b := NewBuilder()
	id, err := b.PersonWith("P", Properties{"city": "Roma"})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Graph().Node(id).Props.Map(); got["name"] != "P" || got["city"] != "Roma" {
		t.Fatalf("new person props = %v", got)
	}
	seq := b.Graph().Seq()
	if _, err := b.PersonWith("P", Properties{"city": "Milano"}); err == nil || !strings.Contains(err.Error(), `"P"`) {
		t.Errorf("PersonWith of an existing person: %v, want an error naming it", err)
	}
	if got, _ := b.Graph().Node(id).Props.Str("city"); got != "Roma" || b.Graph().Seq() != seq {
		t.Errorf("a refused PersonWith changed the graph: city %q, seq %d → %d", got, seq, b.Graph().Seq())
	}
	b.Company("C")
	if _, err := b.PersonWith("C", nil); err == nil || !strings.Contains(err.Error(), `"C"`) {
		t.Errorf("PersonWith on a company key: %v, want an error naming it", err)
	}
	// A value outside the four kinds is refused with the person and key
	// named, and no person is added.
	_, err = b.PersonWith("Q", Properties{"city": "Torino", "tags": []string{"x"}})
	if err == nil || !strings.Contains(err.Error(), `person "Q"`) || !strings.Contains(err.Error(), `"tags"`) {
		t.Errorf("PersonWith with a []string value: %v, want an error naming the person and key", err)
	}
	if _, ok := b.Lookup("Q"); ok || len(b.Graph().NodesWithLabel(LabelPerson)) != 1 {
		t.Errorf("a refused PersonWith added a person")
	}
}
