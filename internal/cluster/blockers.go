package cluster

import (
	"fmt"

	"vadalink/internal/family"
	"vadalink/internal/pg"
)

// PersonBlocker blocks person nodes with two passes, the standard
// record-linkage multi-pass scheme the paper's Section 6.1 discussion calls
// for ("searching for the siblingOf relationship among people of the same
// last name ... would lead to clusters including thousands of persons ...
// resorting to specific features, for example address vicinity ... could
// highly reduce the search space"):
//
//   - a surname pass: phonetic surname code (Soundex) plus birth decade —
//     catches siblings and parent–child pairs that moved apart;
//   - a household pass: city plus street address — catches partners with
//     different surnames and cross-generation pairs at the family seat.
//
// A pair of persons is compared when it shares either key. Non-person nodes
// get no keys.
type PersonBlocker struct {
	// ByCity additionally partitions the surname pass by city, sharpening
	// selectivity on very common surnames.
	ByCity bool
	// NoHousehold disables the household pass (surname-only blocking).
	NoHousehold bool
}

// Key implements Blocker with the surname pass (the primary key).
func (b PersonBlocker) Key(n *pg.Node) string {
	keys := b.AllKeys(n)
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// AllKeys implements MultiKeyBlocker.
func (b PersonBlocker) AllKeys(n *pg.Node) []string {
	if n.Label != pg.LabelPerson {
		return nil
	}
	var keys []string
	if surname, _ := n.Props.Str("surname"); surname != "" {
		birth, _ := n.Props.Num("birth")
		decade := int(birth) / 10
		key := fmt.Sprintf("sn|%s|%d", family.Soundex(surname), decade)
		if b.ByCity {
			city, _ := n.Props.Str("city")
			key += "|" + city
		}
		keys = append(keys, key)
	}
	if !b.NoHousehold {
		addr, _ := n.Props.Str("addr")
		city, _ := n.Props.Str("city")
		if addr != "" {
			keys = append(keys, "hh|"+city+"|"+addr)
		}
	}
	return keys
}
