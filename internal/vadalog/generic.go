package vadalog

import (
	"fmt"
	"strconv"
	"strings"

	"vadalink/internal/cluster"
	"vadalink/internal/datalog"
	"vadalink/internal/embed"
	"vadalink/internal/family"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// GenericAugmentProgram is Algorithm 3 as shipped rules: Rule (1) places
// every generic node into the two-level clustering structure (the Block
// atom) through the #graphembedclust and #generateblocks function hooks;
// Rule (2) exhaustively pairs the nodes of each (b1, b2) block and asks the
// polymorphic candidate function for a decision. The output-mapping rule
// turns accepted generic links back into concrete pairs (Algorithm 4).
const GenericAugmentProgram = `
% Algorithm 3 — generic KG augmentation over the promoted graph model.
gnode(X, N, B, A, S), B1 = #graphembedclust(X), B2 = #generateblocks(X),
    B2 != "" -> block(B1, B2, X).
block(B1, B2, X), block(B1, B2, Y), X != Y,
    gnodetype(X, "Person"), gnodetype(Y, "Person"),
    P = #linkprobnode(X, Y), P > 0.5 -> gpredicted(X, Y, "PartnerOf").
gpredicted(X, Y, C), gid(X, Xi), gid(Y, Yi) -> partnerof(Xi, Yi).
`

// GenericConfig configures a generic-pipeline run.
type GenericConfig struct {
	// FirstLevelK is the k of the embedding k-means (≤ 1 puts every node in
	// one first-level cluster).
	FirstLevelK int
	// Embed configures node2vec for the first level.
	Embed embed.Config
	// Blocker is the #generateblocks implementation; nil uses the person
	// multi-pass blocker. Multi-key blockers are flattened to their primary
	// key here (the declarative pipeline assigns one b2 per node, exactly as
	// Algorithm 3 Rule (1) does).
	Blocker cluster.Blocker
	// Classifier backs #linkprobnode; nil uses family.NewClassifier().
	Classifier *family.Classifier
	// EngineOptions tunes the engine (e.g. datalog.WithProvenance() for
	// explainable decisions), applied in order.
	EngineOptions []datalog.Option
}

// GenericResult is the outcome of the declarative Algorithm 3 pipeline.
type GenericResult struct {
	// Pairs are the predicted partner pairs (concrete node IDs).
	Pairs [][2]pg.NodeID
	// Blocks is the number of distinct (b1, b2) blocks.
	Blocks int
	// Engine exposes the evaluated engine (e.g. for Explain).
	Engine *datalog.Engine
}

// RunGeneric executes the full declarative pipeline of the paper — input
// mapping (Algorithm 2), clustering + candidate generation (Algorithm 3) and
// output mapping (Algorithm 4) — over the company graph, with the clustering
// functions provided as engine builtins. The first-level clustering is
// computed by node2vec + k-means over the current graph, then exposed to the
// rules through #graphembedclust.
func RunGeneric(g *pg.Graph, cfg GenericConfig) (*GenericResult, error) {
	// Precompute the first-level clustering (the #GraphEmbedClust wrapper).
	firstLevel := map[pg.NodeID]int{}
	if cfg.FirstLevelK > 1 {
		emb, err := embed.Learn(g, cfg.Embed)
		if err != nil {
			return nil, fmt.Errorf("vadalog: generic pipeline embedding: %w", err)
		}
		vecs := map[pg.NodeID][]float64{}
		for _, id := range g.Nodes() {
			if v := emb.Vector(id); v != nil {
				vecs[id] = v
			}
		}
		km, err := cluster.KMeans(vecs, cfg.FirstLevelK, cfg.Embed.Seed+1, 0)
		if err != nil {
			return nil, fmt.Errorf("vadalog: generic pipeline clustering: %w", err)
		}
		firstLevel = km.Assignment
	}
	blocker := cfg.Blocker
	if blocker == nil {
		blocker = cluster.PersonBlocker{}
	}
	clf := cfg.Classifier
	if clf == nil {
		clf = family.NewClassifier()
	}

	p, err := shipped(InputMapping + "\n" + GenericAugmentProgram)
	if err != nil {
		return nil, fmt.Errorf("vadalog: compiling generic pipeline: %w", err)
	}
	engine := p.Engine(g, cfg.EngineOptions...)

	nodeOf := func(v any) (pg.NodeID, error) {
		id, ok := skolemNode(v)
		if !ok {
			return 0, fmt.Errorf("vadalog: expected node OID, got %v", v)
		}
		if g.Node(id) == nil {
			return 0, fmt.Errorf("vadalog: OID %v names unknown node %d", v, id)
		}
		return id, nil
	}
	engine.RegisterBuiltin("graphembedclust", func(args []any) (any, error) {
		id, err := nodeOf(args[0])
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf("c%d", firstLevel[id]), nil
	})
	engine.RegisterBuiltin("generateblocks", func(args []any) (any, error) {
		id, err := nodeOf(args[0])
		if err != nil {
			return nil, err
		}
		return blocker.Key(g.Node(id)), nil
	})
	engine.RegisterBuiltin("linkprobnode", func(args []any) (any, error) {
		x, err := nodeOf(args[0])
		if err != nil {
			return nil, err
		}
		y, err := nodeOf(args[1])
		if err != nil {
			return nil, err
		}
		return clf.LinkProbability(
			family.PersonFromNode(g.Node(x)), family.PersonFromNode(g.Node(y))), nil
	})

	if err := engine.Run(); err != nil {
		return nil, err
	}

	res := &GenericResult{Engine: engine}
	blocks := map[string]bool{}
	for _, f := range engine.Facts("block") {
		blocks[fmt.Sprintf("%v|%v", f.Args[0], f.Args[1])] = true
	}
	res.Blocks = len(blocks)
	for _, f := range engine.Facts("partnerof") {
		a, ok1 := relstore.NodeID(f.Args[0])
		b, ok2 := relstore.NodeID(f.Args[1])
		if ok1 && ok2 {
			res.Pairs = append(res.Pairs, [2]pg.NodeID{a, b})
		}
	}
	return res, nil
}

// skolemNode recovers the concrete node ID from a #skp/#skc OID (their key
// encodes the integer ID, so the inverse is total on OIDs this package
// mints).
func skolemNode(v any) (pg.NodeID, bool) {
	sk, ok := v.(datalog.SkolemID)
	if !ok {
		return 0, false
	}
	if sk.Fn != "skp" && sk.Fn != "skc" {
		return 0, false
	}
	key := strings.TrimPrefix(sk.Key, "i")
	n, err := strconv.ParseInt(key, 10, 64)
	if err != nil {
		return 0, false
	}
	return pg.NodeID(n), true
}
