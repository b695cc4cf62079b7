// Package qos models quality-of-service for web services: the W3C metric
// taxonomy the paper reproduces as Figure 3, per-invocation observations,
// the min–max matrix normalization of Liu, Ngu & Zeng [16], and consumer
// preference profiles that turn normalized QoS vectors into scalar utility.
//
// Everything downstream — trust facets, ratings, SLAs, selection — is keyed
// by the metric identifiers defined here.
package qos

import (
	"fmt"
	"slices"
	"strings"
)

// MetricID names one QoS metric, e.g. "response-time". IDs are stable keys
// used across ratings, SLAs and trust facets.
type MetricID string

// Polarity states which direction of a metric is desirable.
type Polarity int

const (
	// HigherBetter marks metrics where larger values are preferred
	// (throughput, availability, accuracy...).
	HigherBetter Polarity = iota + 1
	// LowerBetter marks metrics where smaller values are preferred
	// (response time, latency, cost...).
	LowerBetter
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	switch p {
	case HigherBetter:
		return "higher-better"
	case LowerBetter:
		return "lower-better"
	default:
		return fmt.Sprintf("Polarity(%d)", int(p))
	}
}

// Category is a node of the Figure-3 taxonomy tree (e.g. "Performance",
// "Security"). Leaves of the tree are Metrics.
type Category string

// Figure-3 categories. The tree structure itself lives in Taxonomy.
const (
	CatPerformance   Category = "Performance"
	CatDependability Category = "Dependability"
	CatIntegrity     Category = "Integrity"
	CatSecurity      Category = "Security"
	CatAppSpecific   Category = "Application-specific metrics"
	// CatEconomic is not part of the W3C figure; the paper's Section 3.1
	// names "cost of a web service" as additional selection information, so
	// we attach it as a sibling category.
	CatEconomic Category = "Economic"
)

// Metric describes one leaf of the QoS taxonomy.
type Metric struct {
	// ID is the stable identifier, unique across the taxonomy.
	ID MetricID
	// Name is the human-readable name as printed in Figure 3.
	Name string
	// Category is the top-level branch the metric belongs to.
	Category Category
	// Subgroup is the intermediate node, if any (e.g. "Accountability"
	// under Security).
	Subgroup string
	// Polarity states which direction is desirable.
	Polarity Polarity
	// Unit is a display hint ("ms", "req/s", "ratio", "score").
	Unit string
	// Measurable reports whether the metric can be captured by execution
	// monitoring (response time, availability) as opposed to requiring a
	// subjective consumer rating (accuracy of a weather forecast). The
	// paper draws exactly this line in Section 2: feedback carries both
	// monitored data and ratings "especially the QoS aspects like accuracy
	// that can not be acquired through execution monitoring".
	Measurable bool
}

// Figure-3 metric identifiers (Performance branch).
const (
	ProcessingTime MetricID = "processing-time"
	Throughput     MetricID = "throughput"
	ResponseTime   MetricID = "response-time"
	Latency        MetricID = "latency"
)

// Figure-3 metric identifiers (Dependability branch).
const (
	Availability  MetricID = "availability"
	Accessibility MetricID = "accessibility"
	Accuracy      MetricID = "accuracy"
	Reliability   MetricID = "reliability"
	Capacity      MetricID = "capacity"
	Scalability   MetricID = "scalability"
	Stability     MetricID = "stability"
	Robustness    MetricID = "robustness"
)

// Figure-3 metric identifiers (Integrity and Regulatory branch).
const (
	DataIntegrity          MetricID = "data-integrity"
	TransactionalIntegrity MetricID = "transactional-integrity"
	Interoperability       MetricID = "interoperability"
)

// Figure-3 metric identifiers (Security branch).
const (
	Authentication  MetricID = "authentication"
	Authorization   MetricID = "authorization"
	Traceability    MetricID = "traceability"
	NonRepudiation  MetricID = "non-repudiation"
	Confidentiality MetricID = "confidentiality"
	Encryption      MetricID = "encryption"
)

// Additional selection information named in the paper's Section 3.1.
const (
	Cost MetricID = "cost"
)

// Taxonomy is the full Figure-3 tree plus the Economic branch. Callers must
// not mutate it; use Lookup and Metrics for access.
var taxonomy = []Metric{
	{ID: ProcessingTime, Name: "Processing Time / Execution Time", Category: CatPerformance, Polarity: LowerBetter, Unit: "ms", Measurable: true},
	{ID: Throughput, Name: "Throughput", Category: CatPerformance, Polarity: HigherBetter, Unit: "req/s", Measurable: true},
	{ID: ResponseTime, Name: "Response Time", Category: CatPerformance, Polarity: LowerBetter, Unit: "ms", Measurable: true},
	{ID: Latency, Name: "Latency", Category: CatPerformance, Polarity: LowerBetter, Unit: "ms", Measurable: true},

	{ID: Availability, Name: "Availability", Category: CatDependability, Polarity: HigherBetter, Unit: "ratio", Measurable: true},
	{ID: Accessibility, Name: "Accessibility", Category: CatDependability, Polarity: HigherBetter, Unit: "ratio", Measurable: true},
	{ID: Accuracy, Name: "Accuracy", Category: CatDependability, Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Reliability, Name: "Reliability", Category: CatDependability, Polarity: HigherBetter, Unit: "ratio", Measurable: true},
	{ID: Capacity, Name: "Capacity", Category: CatDependability, Polarity: HigherBetter, Unit: "req", Measurable: true},
	{ID: Scalability, Name: "Scalability", Category: CatDependability, Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Stability, Name: "Stability / Exception Handling", Category: CatDependability, Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Robustness, Name: "Robustness / Flexibility", Category: CatDependability, Polarity: HigherBetter, Unit: "score", Measurable: false},

	{ID: DataIntegrity, Name: "Data Integrity", Category: CatIntegrity, Subgroup: "Integrity", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: TransactionalIntegrity, Name: "Transactional Integrity", Category: CatIntegrity, Subgroup: "Integrity", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Interoperability, Name: "Regulatory / Interoperability", Category: CatIntegrity, Subgroup: "Regulatory", Polarity: HigherBetter, Unit: "score", Measurable: false},

	{ID: Authentication, Name: "Authentication", Category: CatSecurity, Subgroup: "Accountability", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Authorization, Name: "Authorization", Category: CatSecurity, Subgroup: "Accountability", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Traceability, Name: "Traceability / Auditability", Category: CatSecurity, Subgroup: "Accountability", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: NonRepudiation, Name: "Non-Repudiation", Category: CatSecurity, Subgroup: "Accountability", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Confidentiality, Name: "Confidentiality / Privacy", Category: CatSecurity, Subgroup: "Confidentiality", Polarity: HigherBetter, Unit: "score", Measurable: false},
	{ID: Encryption, Name: "Encryption", Category: CatSecurity, Subgroup: "Confidentiality", Polarity: HigherBetter, Unit: "score", Measurable: false},

	{ID: Cost, Name: "Cost", Category: CatEconomic, Polarity: LowerBetter, Unit: "$", Measurable: true},
}

var taxonomyByID = func() map[MetricID]Metric {
	m := make(map[MetricID]Metric, len(taxonomy))
	for _, mt := range taxonomy {
		if _, dup := m[mt.ID]; dup {
			panic("qos: duplicate metric id " + mt.ID)
		}
		m[mt.ID] = mt
	}
	return m
}()

// Lookup returns the Metric for id. The second result reports whether the
// id names a taxonomy metric; application-specific metrics (which Figure 3
// explicitly allows) are legal in Vectors but have no taxonomy entry.
func Lookup(id MetricID) (Metric, bool) {
	m, ok := taxonomyByID[id]
	return m, ok
}

// MustLookup returns the Metric for id and panics if it is not part of the
// taxonomy. Use it for the fixed metric constants above.
func MustLookup(id MetricID) Metric {
	m, ok := Lookup(id)
	if !ok {
		panic("qos: unknown metric " + id)
	}
	return m
}

// PolarityOf returns the desirable direction for id, defaulting to
// HigherBetter for application-specific metrics outside the taxonomy
// (scores and ratios are the common case).
func PolarityOf(id MetricID) Polarity {
	if m, ok := Lookup(id); ok {
		return m.Polarity
	}
	return HigherBetter
}

// Metrics returns all taxonomy metrics in Figure-3 order. The slice is a
// copy; callers may reorder it freely.
func Metrics() []Metric {
	out := make([]Metric, len(taxonomy))
	copy(out, taxonomy)
	return out
}

// Categories returns the top-level branches in Figure-3 order.
func Categories() []Category {
	return []Category{CatPerformance, CatDependability, CatIntegrity, CatSecurity, CatAppSpecific, CatEconomic}
}

// RenderTaxonomy prints the Figure-3 tree as indented text, grouping
// metrics under their category and subgroup. It is used by cmd/wsxcat and
// the F3 experiment to regenerate the figure.
func RenderTaxonomy() string {
	var b strings.Builder
	b.WriteString("QoS for web services\n")
	for _, cat := range Categories() {
		fmt.Fprintf(&b, "├─ %s\n", cat)
		if cat == CatAppSpecific {
			b.WriteString("│  └─ (open set: domain metrics registered at runtime)\n")
			continue
		}
		// Collect metrics of this category preserving declaration order,
		// grouped by subgroup.
		var groups []string
		bySub := map[string][]Metric{}
		for _, m := range taxonomy {
			if m.Category != cat {
				continue
			}
			if _, seen := bySub[m.Subgroup]; !seen {
				groups = append(groups, m.Subgroup)
			}
			bySub[m.Subgroup] = append(bySub[m.Subgroup], m)
		}
		for _, g := range groups {
			indent := "│  "
			if g != "" {
				fmt.Fprintf(&b, "%s├─ %s\n", indent, g)
				indent += "│  "
			}
			for _, m := range bySub[g] {
				fmt.Fprintf(&b, "%s├─ %s  [%s, %s]\n", indent, m.Name, m.Polarity, m.Unit)
			}
		}
	}
	return b.String()
}

// SortIDs returns ids sorted lexicographically; map iteration order in Go is
// random, so every component that walks a metric map uses SortIDs first to
// stay deterministic.
func SortIDs(ids []MetricID) []MetricID {
	out := make([]MetricID, len(ids))
	copy(out, ids)
	slices.Sort(out)
	return out
}
