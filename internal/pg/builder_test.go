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

// TestBuilderPersonWith: the properties are merged over the person's name
// before the node is added, and merging into an existing person replaces the
// node instead of writing it, so a clone taken in between keeps the old one.
func TestBuilderPersonWith(t *testing.T) {
	b := NewBuilder()
	id, err := b.PersonWith("P", Properties{"city": "Roma"})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Graph().Node(id).Props.Map(); got["name"] != "P" || got["city"] != "Roma" {
		t.Fatalf("new person props = %v", got)
	}
	before := b.Graph().Clone()
	if again, err := b.PersonWith("P", Properties{"city": "Milano", "birth": 1970.0}); err != nil || again != id {
		t.Fatalf("PersonWith of an existing person returned %d, %v, want %d", again, err, id)
	}
	if got := b.Graph().Node(id).Props.Map(); got["name"] != "P" || got["city"] != "Milano" || got["birth"] != 1970.0 {
		t.Errorf("merged person props = %v", got)
	}
	if got := before.Node(id).Props.Map(); len(got) != 2 || got["city"] != "Roma" {
		t.Errorf("a clone taken before the merge reads %v", got)
	}
	if n := len(b.Graph().NodesWithLabel(LabelPerson)); n != 1 {
		t.Errorf("%d persons after merging into one", n)
	}
	b.Company("C")
	if _, err := b.PersonWith("C", nil); err == nil || !strings.Contains(err.Error(), `"C"`) {
		t.Errorf("PersonWith on a company key: %v, want an error naming it", err)
	}
	// A value outside the four kinds is refused with the person and key
	// named, and the person is left as it was.
	_, err = b.PersonWith("P", Properties{"city": "Torino", "tags": []string{"x"}})
	if err == nil || !strings.Contains(err.Error(), `person "P"`) || !strings.Contains(err.Error(), `"tags"`) {
		t.Errorf("PersonWith with a []string value: %v, want an error naming the person and key", err)
	}
	if got, _ := b.Graph().Node(id).Props.Str("city"); got != "Milano" {
		t.Errorf("a refused merge changed the person's city to %q", got)
	}
}
