package experiments

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/scene"
)

// PolicyCell is one policy/scene/bounce measurement of the cross-policy
// comparison figure.
type PolicyCell struct {
	Scene  scene.Benchmark
	Policy string
	Bounce int // 0 = overall (all bounces merged)
	Rays   int
	Eff    float64
	Mrays  float64
	// Reorders, RaysMoved, CostCycles are the policy's generic
	// reordering counters (reorder.Stats), comparable across methods.
	Reorders   int64
	RaysMoved  int64
	CostCycles int64
}

// ComparisonPolicies lists the policies the cross-policy figure runs,
// in presentation order: the no-op denominator first, then ahead-of-time
// sorting, then the divergence-time reorderers in rough order of
// hardware ambition.
var ComparisonPolicies = []string{"noop", "sort", "tbc", "dmk", "ser", "drs"}

// PoliciesFigureCtx runs the cross-policy comparison: the given
// policies (nil = ComparisonPolicies) over the given scenes (nil = all
// four), with speedups normalized to the explicit no-op baseline.
// Bounces 1..Params.Bounces (0 = 8) are simulated; the first perBounce
// (<= 0 selects 3) get their own cells and all of them merge into an
// overall cell (Bounce 0). Policy configurations come from
// Params.Options (PolicyOverrides or registry defaults), so the same
// scaled-down machine serves every method.
func PoliciesFigureCtx(ctx context.Context, p Params, perBounce int, scenes []scene.Benchmark, policies []string) ([]PolicyCell, error) {
	if perBounce <= 0 {
		perBounce = 3
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	if policies == nil {
		policies = ComparisonPolicies
	}
	bounces := p.Bounces
	if bounces <= 0 {
		bounces = 8
	}
	res, err := runGrid(ctx, p, "policies", scenes, namedPoints(policies, p.Options), bounces)
	if err != nil {
		return nil, err
	}
	cell := func(b scene.Benchmark, pol string, bounce int, r summary) PolicyCell {
		return PolicyCell{
			Scene: b, Policy: pol, Bounce: bounce,
			Rays: r.rays, Eff: r.eff, Mrays: r.mrays,
			Reorders:   r.reorder.Reorders,
			RaysMoved:  r.reorder.RaysMoved,
			CostCycles: r.reorder.CostCycles,
		}
	}
	var cells []PolicyCell
	for si, b := range scenes {
		for pi, pol := range policies {
			for i, r := range res[si][pi] {
				if r.ok && i < perBounce {
					cells = append(cells, cell(b, pol, i+1, r))
				}
			}
			cells = append(cells, cell(b, pol, 0, merge(res[si][pi], p.Options)))
		}
	}
	return cells, nil
}

func policyKey(c PolicyCell) cellKey { return cellKey{c.Scene, c.Policy, c.Bounce} }

// RenderPolicies prints the cross-policy comparison: per scene and
// bounce, each policy's SIMD efficiency, performance, speedup over the
// explicit no-op baseline, and reordering activity.
func RenderPolicies(cells []PolicyCell, perBounce int) string {
	out := "Cross-policy comparison: reordering policies vs the no-op baseline\n"
	header := []string{"scene", "bounce", "policy", "SIMD eff", "Mrays/s", "x noop", "reorders", "rays moved", "cost cyc"}
	idx := indexCells(cells, policyKey)
	// Column order follows the cells' first-appearance order, so a
	// restricted -policy run renders exactly what it measured.
	var order []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Policy] {
			seen[c.Policy] = true
			order = append(order, c.Policy)
		}
	}
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			noop, haveNoop := idx[cellKey{b, "noop", bn}]
			for _, pol := range order {
				c, ok := idx[cellKey{b, pol, bn}]
				if !ok {
					continue
				}
				speed := "-"
				if haveNoop && noop.Mrays > 0 {
					speed = fmt.Sprintf("%.2fx", c.Mrays/noop.Mrays)
				}
				rows = append(rows, []string{
					b.String(), label, pol,
					pct(c.Eff), f1(c.Mrays), speed,
					fmt.Sprintf("%d", c.Reorders),
					fmt.Sprintf("%d", c.RaysMoved),
					fmt.Sprintf("%d", c.CostCycles),
				})
			}
		}
	}
	return out + table(header, rows)
}

// PolicyCatalog renders the registry as a table: every registered
// policy name with its one-line summary, in registration order.
func PolicyCatalog() string {
	header := []string{"policy", "description"}
	var rows [][]string
	reg := harness.Policies()
	for _, name := range reg.Names() {
		r, _ := reg.Lookup(name)
		rows = append(rows, []string{name, r.Summary})
	}
	return table(header, rows)
}
