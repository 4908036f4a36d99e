package graphgen

import (
	"fmt"
	"math/rand"

	"vadalink/internal/family"
	"vadalink/internal/pg"
)

// ItalianConfig configures the Italian-company-like graph generator. Zero
// values take the documented defaults.
type ItalianConfig struct {
	Persons   int // number of person nodes (default 1000)
	Companies int // number of company nodes (default Persons)
	Seed      int64
}

const (
	// shareEdgesPerNode scales the number of shareholding edges to
	// 0.98·(Persons+Companies), reproducing the §2 average degree ≈ 1.
	shareEdgesPerNode = 0.98
	// selfLoopRate is the fraction of companies owning shares of themselves
	// (the buy-back phenomenon), matching ≈3K self-loops on 4.06M nodes.
	selfLoopRate = 0.0007
)

func (c ItalianConfig) withDefaults() ItalianConfig {
	if c.Persons == 0 {
		c.Persons = 1000
	}
	if c.Companies == 0 {
		c.Companies = c.Persons
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// GroundLink is a planted personal connection, the ground truth for the
// recall experiments of Section 6.2.
type GroundLink struct {
	X, Y  pg.NodeID
	Class family.LinkClass
}

// Italian is a generated Italian-company-like graph plus its planted ground
// truth.
type Italian struct {
	Graph *pg.Graph
	// Truth lists the planted family links (X before Y in generation order).
	Truth []GroundLink
	// Families maps a family surname key to its member person nodes.
	Families map[string][]pg.NodeID
}

// NewItalian generates the graph. Persons are grouped into families of 1–5
// members sharing surname, address and city, with partner/sibling/parent
// structure recorded as ground truth. Shareholding follows preferential
// attachment onto companies (scale-free, §2 profile), with weights
// normalized per company.
func NewItalian(cfg ItalianConfig) *Italian {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	g := pg.New()
	var props pg.RecordBuilder
	out := &Italian{Graph: g, Families: map[string][]pg.NodeID{}}

	// 1. Persons in family groups.
	created := 0
	famIdx := 0
	for created < cfg.Persons {
		size := 1 + r.Intn(5)
		if created+size > cfg.Persons {
			size = cfg.Persons - created
		}
		famIdx++
		surname := surnames[r.Intn(len(surnames))]
		famKey := fmt.Sprintf("%s#%d", surname, famIdx)
		city := cities[r.Intn(len(cities))]
		addr := fmt.Sprintf("%s %d", streets[r.Intn(len(streets))], 1+r.Intn(200))

		type member struct {
			id    pg.NodeID
			birth int
			role  int // 0 parent-generation, 1 child-generation
		}
		var members []member
		parentBirth := 1935 + r.Intn(45)
		for i := 0; i < size; i++ {
			var birth int
			role := 0
			switch {
			case i == 0:
				birth = parentBirth
			case i == 1:
				// Likely partner of member 0: close birth year.
				birth = parentBirth - 5 + r.Intn(11)
			default:
				// Children generation (capped: registered shareholders are
				// adults in the 2005–2018 data the paper describes).
				birth = parentBirth + 20 + r.Intn(15)
				if birth > 1998 {
					birth = 1998 - r.Intn(5)
				}
				role = 1
			}
			sn := surname
			if i == 1 && r.Float64() < 0.5 {
				// Partners may keep their own surname.
				sn = surnames[r.Intn(len(surnames))]
			}
			props.Str("name", firstNames[r.Intn(len(firstNames))])
			props.Str("surname", sn)
			props.Float("birth", float64(birth))
			props.Str("addr", addr)
			props.Str("city", city)
			id := g.AddNode(pg.LabelPerson, props.Record())
			members = append(members, member{id: id, birth: birth, role: role})
			out.Families[famKey] = append(out.Families[famKey], id)
		}
		// Ground-truth structure.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				var class family.LinkClass
				switch {
				case a.role == 0 && b.role == 0:
					class = family.PartnerOf
				case a.role != b.role:
					class = family.ParentOf
				default:
					class = family.SiblingOf
				}
				out.Truth = append(out.Truth, GroundLink{X: a.id, Y: b.id, Class: class})
			}
		}
		created += size
	}

	// 2. Companies.
	companies := make([]pg.NodeID, 0, cfg.Companies)
	for i := 0; i < cfg.Companies; i++ {
		props.Str("name", companyName(r))
		props.Str("sector", sectors[r.Intn(len(sectors))])
		props.Str("addr", fmt.Sprintf("%s %d", streets[r.Intn(len(streets))], 1+r.Intn(200)))
		props.Str("city", cities[r.Intn(len(cities))])
		id := g.AddNode(pg.LabelCompany, props.Record())
		companies = append(companies, id)
	}
	if len(companies) == 0 {
		return out
	}

	// 3. Shareholding with preferential attachment on both sides: targets
	// accumulate in-degree (widely-held companies, paper: max in-degree
	// > 5K) and a minority of sources accumulate out-degree (holding
	// companies and funds with thousands of stakes, paper: max out-degree
	// > 28K). Degree distributions go power-law, per §2.
	persons := g.NodesWithLabel(pg.LabelPerson)
	var inRepeated, outRepeated []pg.NodeID
	pickTarget := func() pg.NodeID {
		if len(inRepeated) > 0 && r.Float64() < 0.7 {
			return inRepeated[r.Intn(len(inRepeated))]
		}
		return companies[r.Intn(len(companies))]
	}
	pickSource := func() pg.NodeID {
		if len(outRepeated) > 0 && r.Float64() < 0.35 {
			return outRepeated[r.Intn(len(outRepeated))]
		}
		if r.Float64() < 0.55 && len(persons) > 0 {
			return persons[r.Intn(len(persons))]
		}
		return companies[r.Intn(len(companies))]
	}
	shareEdges := int(shareEdgesPerNode * float64(cfg.Persons+cfg.Companies))
	var shares []share
	for i := 0; i < shareEdges; i++ {
		from := pickSource()
		to := pickTarget()
		if from == to {
			continue
		}
		shares = append(shares, share{from, to, shareAmount(r)})
		inRepeated = append(inRepeated, to)
		outRepeated = append(outRepeated, from)
	}

	// 4. Buy-back self-loops.
	loops := int(selfLoopRate * float64(len(companies)))
	for i := 0; i < loops; i++ {
		c := companies[r.Intn(len(companies))]
		shares = append(shares, share{c, c, 0.01 + 0.1*r.Float64()})
	}

	// 5. Cross-ownership rings: small groups of companies holding minority
	// stakes in each other, reproducing the §2 non-trivial SCCs (paper:
	// largest SCC 15 on 4M nodes — rare but present).
	rings := len(companies) / 2000
	for i := 0; i < rings; i++ {
		size := 2 + r.Intn(6)
		ring := make([]pg.NodeID, size)
		for j := range ring {
			ring[j] = companies[r.Intn(len(companies))]
		}
		for j := range ring {
			a, b := ring[j], ring[(j+1)%size]
			if a == b {
				continue
			}
			shares = append(shares, share{a, b, 0.02 + 0.1*r.Float64()})
		}
	}

	// 6. Ownership triangles: an owner of two companies where one company
	// also holds the other — lifts the clustering coefficient toward the
	// §2 value (≈ 0.0084) while staying "very low".
	triangles := (len(persons) + len(companies)) / 175
	holders := append(append([]pg.NodeID(nil), persons...), companies...)
	for i := 0; i < triangles && len(companies) >= 2; i++ {
		a := holders[r.Intn(len(holders))]
		c1 := companies[r.Intn(len(companies))]
		c2 := companies[r.Intn(len(companies))]
		if a == c1 || a == c2 || c1 == c2 {
			continue
		}
		shares = append(shares,
			share{a, c1, shareAmount(r)},
			share{a, c2, shareAmount(r)},
			share{c1, c2, 0.02 + 0.1*r.Float64()})
	}

	addShares(g, shares)
	return out
}

// shareAmount draws a share fraction with the bimodal shape of real company
// registers: many small stakes, a fat bump near majority and full ownership.
func shareAmount(r *rand.Rand) float64 {
	switch {
	case r.Float64() < 0.25:
		return 1.0 // sole ownership (normalized later if the company gains more owners)
	case r.Float64() < 0.3:
		return 0.5 + 0.5*r.Float64()
	default:
		return 0.01 + 0.49*r.Float64()
	}
}

var surnames = []string{
	"Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo",
	"Ricci", "Marino", "Greco", "Bruno", "Gallo", "Conti", "DeLuca",
	"Mancini", "Costa", "Giordano", "Rizzo", "Lombardi", "Moretti",
	"Barbieri", "Fontana", "Santoro", "Mariani", "Rinaldi", "Caruso",
	"Ferrara", "Galli", "Martini", "Leone", "Longo", "Gentile", "Martinelli",
	"Vitale", "Lombardo", "Serra", "Coppola", "DeSantis", "D'Angelo",
	"Marchetti", "Parisi", "Villa", "Conte", "Ferraro", "Ferri", "Fabbri",
	"Bianco", "Marini", "Grasso", "Valentini",
}

var firstNames = []string{
	"Mario", "Luigi", "Giuseppe", "Giovanni", "Antonio", "Francesco",
	"Luca", "Marco", "Andrea", "Stefano", "Anna", "Maria", "Giulia",
	"Francesca", "Elena", "Laura", "Paola", "Chiara", "Sara", "Valentina",
	"Alessandro", "Davide", "Simone", "Matteo", "Lorenzo", "Roberta",
	"Silvia", "Martina", "Alessia", "Federica",
}

var streets = []string{
	"Via Roma", "Via Garibaldi", "Corso Italia", "Via Dante", "Via Verdi",
	"Piazza Duomo", "Via Mazzini", "Corso Vittorio Emanuele", "Via Cavour",
	"Via Marconi", "Viale Europa", "Via Manzoni",
}

var cities = []string{
	"Roma", "Milano", "Napoli", "Torino", "Palermo", "Genova", "Bologna",
	"Firenze", "Bari", "Catania", "Venezia", "Verona",
}
