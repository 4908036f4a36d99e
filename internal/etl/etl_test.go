package etl

import (
	"errors"
	"io"
	"strings"
	"testing"

	"vadalink/internal/control"
	"vadalink/internal/pg"
)

const companiesCSV = `id,name,sector,addr,city
C001,Acme s.p.a.,manufacturing,Via Roma 1,Milano
C002,Beta s.r.l.,finance,Via Dante 2,Roma
`

const personsCSV = `id,name,surname,birth,addr,city
P001,Mario,Rossi,1960,Via Garibaldi 12,Roma
P002,Elena,Rossi,1962,Via Garibaldi 12,Roma
`

const sharesCSV = `owner,owned,share,right
P001,C001,0.6,ownership
C001,C002,0.8,ownership
P002,C002,0.1,bare ownership
`

func TestLoadFullPipeline(t *testing.T) {
	res, err := Load(
		strings.NewReader(companiesCSV),
		strings.NewReader(personsCSV),
		strings.NewReader(sharesCSV),
	)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("loaded %d nodes / %d edges, want 4/3", g.NumNodes(), g.NumEdges())
	}
	mario := res.IDs["P001"]
	if g.Node(mario).Label != pg.LabelPerson || g.Node(mario).Props.Map()["surname"] != "Rossi" {
		t.Errorf("P001 loaded wrong: %+v", g.Node(mario))
	}
	// The loaded graph immediately supports reasoning: Mario controls both.
	got := control.Controls(g, mario)
	if len(got) != 2 {
		t.Errorf("Mario controls %d companies, want 2 (Acme and, via it, Beta)", len(got))
	}
	// Edge properties carried through.
	e := g.Edge(g.Out(mario)[0])
	if e.Props.Map()["right"] != "ownership" {
		t.Errorf("share right = %v", e.Props.Map()["right"])
	}
}

func TestLoadWithoutHeaders(t *testing.T) {
	res, err := Load(
		strings.NewReader("C1,NoHeader Co\n"),
		nil,
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() != 1 {
		t.Errorf("nodes = %d", res.Graph.NumNodes())
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name                       string
		companies, persons, shares string
	}{
		{"duplicate id", "C1,A\nC1,B\n", "", ""},
		{"unknown owner", "C1,A\n", "", "PX,C1,0.5\n"},
		{"unknown owned", "C1,A\n", "", "C1,CX,0.5\n"},
		{"bad share", "C1,A\nC2,B\n", "", "C1,C2,1.5\n"},
		{"zero share", "C1,A\nC2,B\n", "", "C1,C2,0\n"},
		{"NaN share", "C1,A\nC2,B\n", "", "C1,C2,NaN\n"},
		{"bad birth", "", "P1,Mario,Rossi,notayear\n", ""},
		{"short person row", "", "P1,Mario\n", ""},
		{"share into person", "C1,A\n", "P1,Mario,Rossi,1960\n", "C1,P1,0.5\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Load(readerOrNil(c.companies), readerOrNil(c.persons), readerOrNil(c.shares)); err == nil {
				t.Errorf("want error, got nil")
			}
		})
	}
}

// readerOrNil returns an untyped nil for empty input: a typed nil
// *strings.Reader inside an io.Reader interface would not compare equal to
// nil in Load.
func readerOrNil(s string) io.Reader {
	if s == "" {
		return nil
	}
	return strings.NewReader(s)
}

// failingReader fails every Read with err and counts the calls.
type failingReader struct {
	err   error
	reads int
}

func (r *failingReader) Read([]byte) (int, error) {
	r.reads++
	return 0, r.err
}

// A read error aborts the load on the first attempt and comes back from Load.
func TestPermanentErrorAbortsImmediately(t *testing.T) {
	permanent := errors.New("disk on fire")
	r := &failingReader{err: permanent}
	_, err := Load(r, nil, nil)
	if !errors.Is(err, permanent) {
		t.Fatalf("Load error = %v, want the read failure", err)
	}
	if r.reads != 1 {
		t.Fatalf("the failing stream was read %d times, want 1", r.reads)
	}
}
