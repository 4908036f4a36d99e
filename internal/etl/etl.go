// Package etl implements the data-loading pipeline of the §5 architecture:
// "data fetched from the RDBMS are enriched with features and extensions
// from external sources, with common ETL jobs. The enriched dataset is then
// used as input to build the extensional component of the KG".
//
// The exchange format is the registry-style CSV triple the Italian Chambers
// of Commerce data reduces to:
//
//	companies.csv:     id,name,sector,addr,city
//	persons.csv:       id,name,surname,birth,addr,city
//	shareholdings.csv: owner,owned,share[,right]
//
// IDs are free-form strings (fiscal codes in production); the loader assigns
// graph node IDs and returns the mapping. Malformed rows fail loudly with
// line numbers — silent data loss in an ETL job is how reporting graphs go
// wrong. The loader streams (it never buffers a whole file), bounds row
// width and record size against hostile input, and reports the first
// MaxReportedRows malformed rows in one *LoadError instead of stopping at
// the first, so one pass over a dirty export shows the shape of the dirt.
package etl

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vadalink/internal/pg"
)

// Input hardening bounds: rows wider than MaxColumns or heavier than
// MaxRecordBytes are malformed regardless of content.
const (
	MaxColumns     = 64
	MaxRecordBytes = 1 << 20 // 1 MiB per record
	// MaxReportedRows caps how many malformed rows a LoadError carries.
	MaxReportedRows = 10
)

// RowError locates one malformed row.
type RowError struct {
	File string // which stream: "companies", "persons", "shareholdings"
	Line int    // 1-based line in that stream
	Msg  string
}

func (e RowError) String() string {
	return fmt.Sprintf("%s line %d: %s", e.File, e.Line, e.Msg)
}

// LoadError reports every malformed row of a Load pass, up to
// MaxReportedRows; Total counts all of them.
type LoadError struct {
	Rows  []RowError
	Total int
}

func (e *LoadError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "etl: %d malformed row(s)", e.Total)
	if e.Total > len(e.Rows) {
		fmt.Fprintf(&b, " (first %d shown)", len(e.Rows))
	}
	for _, r := range e.Rows {
		b.WriteString("\n\t")
		b.WriteString(r.String())
	}
	return b.String()
}

// errCollector accumulates row errors across the three streams.
type errCollector struct {
	rows  []RowError
	total int
}

func (c *errCollector) add(file string, line int, format string, args ...any) {
	c.total++
	if len(c.rows) < MaxReportedRows {
		c.rows = append(c.rows, RowError{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *errCollector) err() error {
	if c.total == 0 {
		return nil
	}
	return &LoadError{Rows: c.rows, Total: c.total}
}

// Result is a loaded company graph plus the external-ID mapping.
type Result struct {
	Graph *pg.Graph
	// IDs maps external identifiers (e.g. fiscal codes) to node IDs.
	IDs map[string]pg.NodeID
}

// Load reads the three CSV streams and builds the company graph. Any reader
// may be nil, in which case that entity class is absent. Malformed rows
// (bad syntax, over-wide or over-size records, unknown IDs, out-of-range
// shares) are collected and returned together as a *LoadError; rows beyond
// the bounds are skipped, never partially applied. A read error of a stream
// aborts the load and is returned wrapped.
func Load(companies, persons, shareholdings io.Reader) (*Result, error) {
	res := &Result{Graph: pg.New(), IDs: map[string]pg.NodeID{}}
	var c errCollector
	if companies != nil {
		if err := res.loadCompanies(companies, &c); err != nil {
			return nil, err
		}
	}
	if persons != nil {
		if err := res.loadPersons(persons, &c); err != nil {
			return nil, err
		}
	}
	if shareholdings != nil {
		if err := res.loadShareholdings(shareholdings, &c); err != nil {
			return nil, err
		}
	}
	if err := c.err(); err != nil {
		return nil, err
	}
	return res, nil
}

// forEachRow streams CSV records to fn, skipping an optional header whose
// first column matches headerFirst. Structural problems (bad quoting,
// over-wide rows, over-size records, too few columns) go to the collector
// and the row is skipped; only non-CSV I/O errors abort the stream.
func forEachRow(r io.Reader, headerFirst string, minCols int, what string, c *errCollector, fn func(line int, rec []string)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	first := true
	for {
		offsetBefore := cr.InputOffset()
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var perr *csv.ParseError
			if errors.As(err, &perr) {
				c.add(what, perr.Line, "%v", perr.Err)
				if cr.InputOffset() == offsetBefore {
					// No forward progress: the reader is stuck (e.g. an
					// unterminated quote at EOF); stop instead of spinning.
					return nil
				}
				continue
			}
			return fmt.Errorf("etl: reading %s: %w", what, err)
		}
		line, _ := cr.FieldPos(0)
		if first {
			first = false
			if len(rec) > 0 && strings.EqualFold(strings.TrimSpace(rec[0]), headerFirst) {
				continue
			}
		}
		if len(rec) > MaxColumns {
			c.add(what, line, "row has %d columns, max %d", len(rec), MaxColumns)
			continue
		}
		size := 0
		for _, f := range rec {
			size += len(f)
		}
		if size > MaxRecordBytes {
			c.add(what, line, "record is %d bytes, max %d", size, MaxRecordBytes)
			continue
		}
		if len(rec) < minCols {
			c.add(what, line, "want ≥ %d columns, got %d", minCols, len(rec))
			continue
		}
		fn(line, rec)
	}
}

func (r *Result) register(extID string, id pg.NodeID) bool {
	if _, dup := r.IDs[extID]; dup {
		return false
	}
	r.IDs[extID] = id
	return true
}

func (r *Result) loadCompanies(in io.Reader, c *errCollector) error {
	var props pg.RecordBuilder
	return forEachRow(in, "id", 2, "companies", c, func(line int, rec []string) {
		extID := strings.TrimSpace(rec[0])
		if _, dup := r.IDs[extID]; dup {
			c.add("companies", line, "duplicate id %q", extID)
			return
		}
		props.Str("name", rec[1])
		if len(rec) > 2 {
			props.Str("sector", rec[2])
		}
		if len(rec) > 3 {
			props.Str("addr", rec[3])
		}
		if len(rec) > 4 {
			props.Str("city", rec[4])
		}
		r.register(extID, r.Graph.AddNode(pg.LabelCompany, props.Record()))
	})
}

func (r *Result) loadPersons(in io.Reader, c *errCollector) error {
	var props pg.RecordBuilder
	return forEachRow(in, "id", 3, "persons", c, func(line int, rec []string) {
		extID := strings.TrimSpace(rec[0])
		if _, dup := r.IDs[extID]; dup {
			c.add("persons", line, "duplicate id %q", extID)
			return
		}
		var birth float64
		if len(rec) > 3 && rec[3] != "" {
			var err error
			if birth, err = strconv.ParseFloat(rec[3], 64); err != nil {
				c.add("persons", line, "bad birth year %q", rec[3])
				return
			}
			props.Float("birth", birth)
		}
		props.Str("name", rec[1])
		props.Str("surname", rec[2])
		if len(rec) > 4 {
			props.Str("addr", rec[4])
		}
		if len(rec) > 5 {
			props.Str("city", rec[5])
		}
		r.register(extID, r.Graph.AddNode(pg.LabelPerson, props.Record()))
	})
}

func (r *Result) loadShareholdings(in io.Reader, c *errCollector) error {
	var props pg.RecordBuilder
	return forEachRow(in, "owner", 3, "shareholdings", c, func(line int, rec []string) {
		owner, ok := r.IDs[strings.TrimSpace(rec[0])]
		if !ok {
			c.add("shareholdings", line, "unknown owner %q", rec[0])
			return
		}
		owned, ok := r.IDs[strings.TrimSpace(rec[1])]
		if !ok {
			c.add("shareholdings", line, "unknown owned company %q", rec[1])
			return
		}
		share, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			c.add("shareholdings", line, "bad share %q (want a fraction in (0,1])", rec[2])
			return
		}
		props.Float(pg.WeightProp, share)
		if len(rec) > 3 && rec[3] != "" {
			props.Str("right", rec[3])
		}
		if _, err := r.Graph.AddEdge(pg.LabelShareholding, owner, owned, props.Record()); err != nil {
			c.add("shareholdings", line, "%v", err)
		}
	})
}
