package logical

import (
	"fmt"
	"sort"
	"strings"
)

// The distribute rewrite decides whether an optimized plan can run as
// scatter/gather over range-partitioned shards. The shape follows the
// promql-engine distribute rewrite: scans, filters, joins, and partial
// aggregation are pushed below a scatter exchange (each shard runs the
// whole pipeline tree over its slice via ExecutePartial), and a gather
// exchange on the coordinator merges the partials (MergePartials)
// before the shared finalization tail. Distribution is purely a data-
// placement question here — each shard executes the full plan locally,
// so the rewrite's job is proving that summing per-shard partials
// equals the global answer.

// DistMode says how a distributable plan fans out.
type DistMode int

const (
	// DistScatter fans the plan out to every shard: it reads at least
	// one partitioned table, and every partitioned row reaches exactly
	// one shard.
	DistScatter DistMode = iota
	// DistSingle routes the plan to a single shard: it reads only
	// replicated tables, so any one shard holds all of its data (and
	// running it everywhere would duplicate rows).
	DistSingle
)

// DistPlan is a plan annotated with its exchange placement.
type DistPlan struct {
	Plan *Plan
	Mode DistMode
	// PartTables lists the partitioned tables the plan reads, sorted
	// (empty in DistSingle mode).
	PartTables []string

	partKey map[string]string
}

// Distribute validates that the plan's joins respect the partitioning
// in partKey (table → partition column; absent tables are
// replicated on every shard) and returns its exchange placement. A
// non-nil error means the plan is not shard-safe under this
// partitioning — e.g. a join between two partitioned tables on
// non-partition columns — and must run single-process on the full
// data.
//
// The placement argument: a row of the final pipeline is a (spine row,
// matched build rows) combination, and inner joins only multiply
// matches. If every hash build whose subtree holds partitioned data is
// keyed by that table's partition column and probed by the probe
// spine's partition column, then every matching combination is
// co-located on one shard and appears there exactly once — so
// concatenating (or re-merging, for aggregates) the shards' partials
// is exactly the single-process merge phase.
func Distribute(pl *Plan, partKey map[string]string) (*DistPlan, error) {
	seen := make(map[string]bool)
	if err := checkDist(pl.Root, partKey, seen); err != nil {
		return nil, err
	}
	dp := &DistPlan{Plan: pl, partKey: partKey}
	for t := range seen {
		dp.PartTables = append(dp.PartTables, t)
	}
	sort.Strings(dp.PartTables)
	if len(dp.PartTables) == 0 {
		dp.Mode = DistSingle
	}
	return dp, nil
}

// checkDist walks the join tree validating co-partitioning and
// collecting the partitioned tables into seen.
func checkDist(n Node, partKey map[string]string, seen map[string]bool) error {
	switch x := n.(type) {
	case *Scan:
		if partKey[x.Table.Name] != "" {
			seen[x.Table.Name] = true
		}
		return nil
	case *Join:
		if err := checkDist(x.Build, partKey, seen); err != nil {
			return err
		}
		if err := checkDist(x.Probe, partKey, seen); err != nil {
			return err
		}
		bp := make(map[string]bool)
		collectPartitioned(x.Build, partKey, bp)
		if len(bp) == 0 {
			// Fully replicated build side: every shard holds the whole
			// hash table, any probe key matches locally.
			return nil
		}
		// Partitioned data on the build side: the hash table is sliced,
		// so a probe finds its matches only if the probed key routes to
		// the same shard as the build rows. That requires the build
		// spine to be the (sole) partitioned table, built on its
		// partition key, and the probe spine co-partitioned on the
		// probe key.
		bs := x.Build.Spine().Table
		if len(bp) != 1 || !bp[bs.Name] {
			return fmt.Errorf("logical: build subtree of join %s = %s holds partitioned data below its spine", x.ProbeKey.Name, x.BuildKey.Name)
		}
		if partKey[bs.Name] != x.BuildKey.Name {
			return fmt.Errorf("logical: join builds %s on %s but it is partitioned on %s", bs.Name, x.BuildKey.Name, partKey[bs.Name])
		}
		ps := x.Probe.Spine().Table
		if partKey[ps.Name] != x.ProbeKey.Name {
			return fmt.Errorf("logical: join probes partitioned %s with %s.%s, which is not co-partitioned", bs.Name, ps.Name, x.ProbeKey.Name)
		}
		return nil
	}
	return fmt.Errorf("logical: unknown node %T in distribute rewrite", n)
}

// collectPartitioned gathers the partitioned tables scanned under n.
func collectPartitioned(n Node, partKey map[string]string, out map[string]bool) {
	switch x := n.(type) {
	case *Scan:
		if partKey[x.Table.Name] != "" {
			out[x.Table.Name] = true
		}
	case *Join:
		collectPartitioned(x.Build, partKey, out)
		collectPartitioned(x.Probe, partKey, out)
	}
}

// Format renders the distributed plan as an indented tree — the
// exchange operators wrapping the ordinary plan — for EXPLAIN output
// and the plan-shape tests. shards is the fan-out width rendered on
// the scatter node.
func (dp *DistPlan) Format(shards int) string {
	var sb strings.Builder
	pl := dp.Plan
	merge := "concat rows"
	if pl.Agg != nil {
		if len(pl.Agg.Keys) > 0 {
			merge = "merge groups"
		} else {
			merge = "merge global"
		}
	}
	var tail []string
	if pl.Having != nil {
		tail = append(tail, "having")
	}
	if len(pl.Sort) > 0 {
		tail = append(tail, "sort")
	}
	if pl.Limit >= 0 {
		tail = append(tail, "limit")
	}
	fmt.Fprintf(&sb, "gather %s", merge)
	if len(tail) > 0 {
		fmt.Fprintf(&sb, " finalize=[%s]", strings.Join(tail, " "))
	}
	sb.WriteByte('\n')
	if dp.Mode == DistSingle {
		sb.WriteString("  scatter single-shard (replicated tables only)\n")
	} else {
		parts := make([]string, len(dp.PartTables))
		for i, t := range dp.PartTables {
			parts[i] = t + "." + dp.partKey[t]
		}
		fmt.Fprintf(&sb, "  scatter shards=%d range[%s]\n", shards, strings.Join(parts, ", "))
	}
	for _, line := range strings.Split(strings.TrimRight(pl.Format(), "\n"), "\n") {
		sb.WriteString("    ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}
