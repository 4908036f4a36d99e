package etl

import (
	"errors"
	"strings"
	"testing"
)

// TestLoadReportsManyMalformedRows: one pass reports every bad row (up to
// the cap) with its stream and line number, instead of stopping at the
// first.
func TestLoadReportsManyMalformedRows(t *testing.T) {
	companies := "id,name\nC1,Acme\nC2\nC3,Beta\nC4\n" // lines 3 and 5 short
	shares := "owner,owned,share\nC1,C3,0.5\nCX,C3,0.5\nC1,C3,7\n"
	_, err := Load(strings.NewReader(companies), nil, strings.NewReader(shares))
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if le.Total != 4 {
		t.Errorf("Total = %d, want 4 (%v)", le.Total, le)
	}
	wantRows := []RowError{
		{File: "companies", Line: 3, Msg: "want ≥ 2 columns, got 1"},
		{File: "companies", Line: 5, Msg: "want ≥ 2 columns, got 1"},
		{File: "shareholdings", Line: 3, Msg: `unknown owner "CX"`},
		{File: "shareholdings", Line: 4, Msg: "pg: edge 1: share amount 7 outside (0, 1]"},
	}
	for i, want := range wantRows {
		if i >= len(le.Rows) {
			t.Fatalf("only %d rows reported: %v", len(le.Rows), le)
		}
		if le.Rows[i] != want {
			t.Errorf("row %d = %+v, want %+v", i, le.Rows[i], want)
		}
	}
	if !strings.Contains(err.Error(), "companies line 3") {
		t.Errorf("error text lacks line numbers: %v", err)
	}
}

func TestLoadErrorReportCapped(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,name\n")
	for i := 0; i < MaxReportedRows+5; i++ {
		b.WriteString("solo\n") // every row too short
	}
	_, err := Load(strings.NewReader(b.String()), nil, nil)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if le.Total != MaxReportedRows+5 || len(le.Rows) != MaxReportedRows {
		t.Errorf("Total = %d, reported = %d, want %d and %d",
			le.Total, len(le.Rows), MaxReportedRows+5, MaxReportedRows)
	}
	if !strings.Contains(err.Error(), "first 10 shown") {
		t.Errorf("capped report not announced: %v", err)
	}
}

func TestLoadRejectsOverWideRow(t *testing.T) {
	row := "C1,Acme" + strings.Repeat(",x", MaxColumns) + "\n"
	_, err := Load(strings.NewReader(row), nil, nil)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if !strings.Contains(err.Error(), "columns, max") {
		t.Errorf("wrong message: %v", err)
	}
}

func TestLoadRejectsOversizeRecord(t *testing.T) {
	row := "C1," + strings.Repeat("a", MaxRecordBytes+1) + "\n"
	_, err := Load(strings.NewReader(row), nil, nil)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
	if !strings.Contains(err.Error(), "bytes, max") {
		t.Errorf("wrong message: %v", err)
	}
}

// TestLoadBadQuoting: a CSV syntax error is reported with its line and the
// loader keeps going (no hang, no panic).
func TestLoadBadQuoting(t *testing.T) {
	companies := "id,name\nC1,\"unterminated\n"
	_, err := Load(strings.NewReader(companies), nil, nil)
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoadError", err)
	}
}

func TestLoadGoodRowsSurviveBadOnes(t *testing.T) {
	// The error report is complete even though good rows around the bad
	// ones parsed fine: nothing is silently half-loaded, the caller gets
	// either a graph or the full damage report.
	companies := "id,name\nC1,Acme\nbad\nC2,Beta\n"
	res, err := Load(strings.NewReader(companies), nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if res != nil {
		t.Errorf("partial result returned alongside error")
	}
}
