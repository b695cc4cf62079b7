// Package pagerank implements reputation from link analysis: Google's
// PageRank [23], which the survey classifies as a centralized / resource /
// global reputation system ("bringing order to the web" is reputation for
// pages), plus the social-network-topology reputation of Pujol et al. [24]
// (NodeRanking), which applies the same machinery to the who-interacts-
// with-whom graph of a multi-agent community.
//
// The generic Rank function runs weighted PageRank over any directed graph;
// the Mechanism adapts it to the framework by treating each positive
// consumer rating as a link from the consumer to the service.
package pagerank

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"wstrust/internal/core"
)

// Rank computes weighted PageRank. nodes lists every vertex; edges[u][v]
// is the non-negative weight of the link u→v. damping is the classic
// (1−teleport) factor, iters the number of power iterations. The result
// sums to one across nodes. Rank is deterministic: iteration follows the
// sorted node order.
func Rank(nodes []string, edges map[string]map[string]float64, damping float64, iters int) map[string]float64 {
	n := len(nodes)
	if n == 0 {
		return map[string]float64{}
	}
	sorted := make([]string, n)
	copy(sorted, nodes)
	sort.Strings(sorted)

	// Each row's links in target order, and its out-weight summed in that
	// order, built once: the iterations below only read them.
	type link struct {
		v string
		w float64
	}
	rows := make(map[string][]link, len(edges))
	outW := make(map[string]float64, n)
	for u, row := range edges {
		targets := make([]link, 0, len(row))
		for v, w := range row {
			if w < 0 {
				panic(fmt.Sprintf("pagerank: negative edge weight from %s", u))
			}
			targets = append(targets, link{v, w})
		}
		slices.SortFunc(targets, func(a, b link) int { return strings.Compare(a.v, b.v) })
		for _, l := range targets {
			outW[u] += l.w
		}
		rows[u] = targets
	}

	rank := make(map[string]float64, n)
	for _, v := range sorted {
		rank[v] = 1.0 / float64(n)
	}
	next := make(map[string]float64, n)
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		clear(next)
		var dangling float64
		for _, u := range sorted {
			if outW[u] == 0 {
				dangling += rank[u]
			}
		}
		for _, v := range sorted {
			next[v] = base + damping*dangling/float64(n)
		}
		for _, u := range sorted {
			row := rows[u]
			if outW[u] == 0 || len(row) == 0 {
				continue
			}
			share := damping * rank[u] / outW[u]
			for _, l := range row {
				next[l.v] += share * l.w
			}
		}
		rank, next = next, rank
	}
	return rank
}

// dampingFactor and iterations are the Mechanism's damping factor and
// power-iteration count.
const (
	dampingFactor = 0.85
	iterations    = 30
)

// Mechanism adapts PageRank to service reputation: each rating above 0.5
// adds (or strengthens) a link consumer→service; each service links back to
// its provider so providers accumulate authority from their portfolio.
// Scores are ranks normalized by the maximum service rank. Safe for
// concurrent use. The heavy computation runs in Tick, as fits a
// batch-recomputed global mechanism.
type Mechanism struct {
	mu       sync.Mutex
	edges    map[string]map[string]float64
	nodes    map[string]bool
	isTarget map[string]bool // services (rank-normalized pool)
	counts   map[core.EntityID]int
	// The rank vector is epoch-cached (the core generalization of the
	// dirty flag this package pioneered): Submit bumps, Score recomputes
	// lazily, Tick recomputes eagerly.
	epoch    core.Epoch           // guarded by mu
	rankMemo core.Memo[rankState] // guarded by mu
}

// rankState is one computed PageRank vector with its normalizer.
type rankState struct {
	ranks   map[string]float64
	maxRank float64
}

var (
	_ core.Mechanism = (*Mechanism)(nil)
	_ core.Ticker    = (*Mechanism)(nil)
)

// New builds a PageRank reputation mechanism.
func New() *Mechanism {
	return &Mechanism{
		edges:    map[string]map[string]float64{},
		nodes:    map[string]bool{},
		isTarget: map[string]bool{},
		counts:   map[core.EntityID]int{},
	}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "pagerank" }

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("pagerank: %w", err)
	}
	v := fb.Overall()
	m.mu.Lock()
	defer m.mu.Unlock()
	consumer, service := string(fb.Consumer), string(fb.Service)
	m.nodes[consumer] = true
	m.nodes[service] = true
	m.isTarget[service] = true
	m.counts[fb.Service]++
	if v > 0.5 {
		m.addEdge(consumer, service, v)
	}
	if fb.Provider != "" {
		m.nodes[string(fb.Provider)] = true
		m.addEdge(service, string(fb.Provider), 1)
	}
	m.epoch.Bump()
	return nil
}

func (m *Mechanism) addEdge(u, v string, w float64) {
	row, ok := m.edges[u]
	if !ok {
		row = map[string]float64{}
		m.edges[u] = row
	}
	row[v] += w
}

// Tick recomputes the ranks eagerly, as a batch global mechanism does
// each round regardless of pending queries.
func (m *Mechanism) Tick(time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rankMemo.Update(&m.epoch, m.computeLocked())
}

//lint:guarded computeLocked runs with m.mu held by Score's locked section
func (m *Mechanism) computeLocked() rankState {
	nodes := make([]string, 0, len(m.nodes))
	for v := range m.nodes {
		nodes = append(nodes, v)
	}
	st := rankState{ranks: Rank(nodes, m.edges, dampingFactor, iterations)}
	for v, r := range st.ranks {
		if m.isTarget[v] && r > st.maxRank {
			st.maxRank = r
		}
	}
	return st
}

// Score implements core.Mechanism. It lazily recomputes when feedback
// arrived since the last Tick.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.rankMemo.Get(&m.epoch, m.computeLocked)
	r, ok := st.ranks[string(q.Subject)]
	if !ok || m.counts[q.Subject] == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	score := 0.0
	if st.maxRank > 0 {
		score = math.Min(1, r/st.maxRank)
	}
	n := float64(m.counts[q.Subject])
	return core.TrustValue{Score: score, Confidence: n / (n + 5)}, true
}
