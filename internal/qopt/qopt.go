// Package qopt implements the Quality-OPT algorithm (He, Elnikety, Sun —
// "Tians scheduling", ICDCS'11) as used by the paper: when the power
// assigned to a core cannot finish the core's (possibly already cut)
// workload, choose how much of each job to process so the achieved quality
// is the maximum possible within the core's processing capacity.
//
// Formally, for jobs J_1..J_n in EDF order on one core at time `now`, with
// processing-rate cap R (units/second), choose targets c_j ∈
// [processed_j, p_j] maximizing Σ f(c_j) subject to the EDF feasibility
// (prefix-capacity) constraints
//
//	Σ_{i ≤ k} (c_i − processed_i)  ≤  R · (d_k − now)   for every k.
//
// Because every job shares the same concave quality function, the optimum
// is a *level water-fill*: bring all jobs up to a common volume level,
// except where individual demands cap out or a prefix constraint binds.
// Binding prefixes split the problem — exactly dual to the YDS critical
// group: the first segment of the optimum is the prefix that can afford
// only the LOWEST fill level; it is allocated at that level, and the rest
// recurses with the leftover budgets. Levels are therefore non-decreasing
// along the EDF order.
//
// The level of a prefix is defined by a fixed bisection (the test oracle
// fillLevel), and the schedule's bits depend on it: the bisection stops a hair below
// the exact level, and that slack decides whether a job planned to finish
// right at its deadline completes. The bisection costs about 40 O(k) steps
// per prefix, though, so each round screens every prefix by its exact,
// piecewise-linear water level instead (O(k) per prefix), and replays the
// bisection only for the few prefixes that can win the round. The replay
// decides each step from the exact level and evaluates the work sum only
// where rounding could flip the comparison, so it returns the bisection's
// level bit for bit.
package qopt

import (
	"math"

	"goodenough/internal/job"
	"goodenough/internal/quality"
)

// scratchPerJob is how many float64s AllocateEDF carves from scratch per
// job: the prefix budgets plus the screen's five per-segment buffers.
const scratchPerJob = 6

// AllocateEDF maximizes batch quality under the rate cap for jobs already
// in EDF order (job.SortEDF), setting each job's Target in place (never
// below Processed, never above Demand). It returns the total remaining work
// scheduled (Σ Target−Processed) and the (possibly grown) scratch slice for
// the caller to hold on to — passing it back next call makes steady-state
// allocation zero. The job order is read, never mutated.
//
// rate is the core's processing capacity in units/second (speed·1000);
// rate <= 0 pins every target at the processed volume (nothing more can
// run). Jobs past their deadline receive no additional work. f is not
// consulted: every job shares it, and for a shared concave f the optimum
// is the level water-fill whatever its shape.
func AllocateEDF(now float64, sorted []*job.Job, rate float64, f quality.Function, scratch []float64) (float64, []float64) {
	n := len(sorted)
	if n == 0 {
		return 0, scratch
	}
	if rate <= 0 {
		for _, j := range sorted {
			j.SetTarget(j.Processed)
		}
		return 0, scratch
	}

	if cap(scratch) < scratchPerJob*n {
		scratch = make([]float64, scratchPerJob*n)
	}
	buf := scratch[:scratchPerJob*n]
	// Prefix budgets in units of *additional* work.
	budgets := buf[:n]
	for k, j := range sorted {
		w := j.Deadline - now
		if w < 0 {
			w = 0
		}
		budgets[k] = rate * w
	}
	// Budgets are non-decreasing by EDF order; enforce against float noise.
	for k := 1; k < len(budgets); k++ {
		if budgets[k] < budgets[k-1] {
			budgets[k] = budgets[k-1]
		}
	}

	total := 0.0
	allocateSegment(sorted, budgets, newScreen(buf[n:], n), &total)
	return total, scratch
}

// screen holds one round's per-prefix facts, all carved from the caller's
// scratch. For prefix k, a bisection probe below below[k] finds the work
// within budget and one above above[k] finds it over budget (see bracket);
// below[k] = +Inf marks a prefix whose full demands fit (no level binds).
type screen struct {
	starts, ends []float64 // sorted Processed / Demand of the prefix's unfinished jobs
	below, above []float64
	maxDem       []float64 // running max Demand, exactly as fillLevel computes it
}

// newScreen carves a screen for up to n jobs from buf, which holds at
// least 5n floats.
func newScreen(buf []float64, n int) *screen {
	return &screen{
		starts: buf[:n],
		ends:   buf[n : 2*n],
		below:  buf[2*n : 3*n],
		above:  buf[3*n : 4*n],
		maxDem: buf[4*n : 5*n],
	}
}

// allocateSegment solves the nested-constraint water-fill: find the prefix
// achieving the minimum fill level, fix it, and repeat on the suffix with
// the spent budget removed.
func allocateSegment(jobs []*job.Job, budgets []float64, sc *screen, total *float64) {
	for len(jobs) > 0 {
		bestK, bestLevel := sc.pick(jobs, budgets)
		if bestK < 0 {
			// Every prefix can afford full demands: no constraint binds.
			for _, j := range jobs {
				*total += j.Demand - math.Min(j.Demand, j.Processed)
				j.SetTarget(j.Demand)
			}
			return
		}
		// Fix the first segment at its level.
		used := 0.0
		for _, j := range jobs[:bestK+1] {
			c := clampLevel(j, bestLevel)
			used += c - math.Min(c, j.Processed)
			j.SetTarget(c)
		}
		*total += used
		// Recurse on the suffix with the used budget deducted.
		jobs = jobs[bestK+1:]
		budgets = budgets[bestK+1:]
		for i := range budgets {
			budgets[i] -= used
			if budgets[i] < 0 {
				budgets[i] = 0
			}
		}
	}
}

// pick returns the prefix with the lowest fill level and that level, or
// -1 when no prefix binds. It selects exactly what scanning fillLevel over
// every prefix would: the lowest level, ties within 1e-12 going to the
// longest prefix.
//
// Screen: one pass over the prefixes keeps need and maxDemand as running
// values (the same sums, in the same order, as fillLevel) and brackets each
// bisection level by the exact water level. Confirm: the scan below can only
// ever accept a level within its tie drift of the minimum, so only prefixes
// whose bracket reaches that low are replayed. Any level the scan would
// accept before the minimum is overwritten when it reaches the minimum, and
// none after it comes from a skipped prefix, so the skipped prefixes cannot
// change the outcome.
func (sc *screen) pick(jobs []*job.Job, budgets []float64) (int, float64) {
	starts, ends := sc.starts[:0], sc.ends[:0]
	need, maxDemand, mass, span := 0.0, 0.0, 0.0, 0.0
	minAbove := math.Inf(1)
	for k, j := range jobs {
		if j.Demand > j.Processed {
			need += j.Demand - j.Processed
			starts = insertSorted(starts, j.Processed)
			ends = insertSorted(ends, j.Demand)
			d, p := math.Abs(j.Demand), math.Abs(j.Processed)
			mass += d + p
			span = max(span, d, p)
		} else if math.IsNaN(j.Demand) {
			// workAtLevel never caps a NaN demand, so W(L) has no breakpoint
			// for it: give this and every later prefix the open bracket.
			mass = math.NaN()
		}
		if j.Demand > maxDemand {
			maxDemand = j.Demand
		}
		sc.maxDem[k] = maxDemand
		if need <= budgets[k]+1e-12 {
			sc.below[k] = math.Inf(1)
			continue
		}
		below, above := bracket(starts, ends, budgets[k], k+1, mass, span)
		sc.below[k], sc.above[k] = below, above
		// The bisection's level lies in [0, maxDemand].
		if ub := max(0, min(above, maxDemand)); ub < minAbove {
			minAbove = ub
		}
	}
	if math.IsInf(minAbove, 1) {
		return -1, math.Inf(1)
	}
	// Each tie the scan accepts may raise its best level by 1e-12 plus a
	// rounding of the sum.
	drift := float64(len(jobs)+1) * (1e-12 + 0x1p-52*max(maxDemand, 1))
	bestK := -1
	bestLevel := math.Inf(1)
	for k := range jobs {
		below := sc.below[k]
		if math.IsInf(below, 1) {
			continue
		}
		maxD := sc.maxDem[k]
		tol := 1e-12 * max(maxD, 1) // fillLevel's tolerance; maxD is never NaN
		if min(below, maxD)-2*tol > minAbove+drift {
			continue
		}
		level := replayLevel(jobs[:k+1], budgets[k], maxD, tol, below, sc.above[k])
		// Prefer the longest prefix among equal levels so segments are
		// maximal (mirrors YDS taking the whole critical group).
		if level < bestLevel-1e-12 || (level <= bestLevel+1e-12 && k > bestK && level != math.Inf(1)) {
			bestLevel = level
			bestK = k
		}
	}
	if bestK < 0 || math.IsInf(bestLevel, 1) {
		return -1, math.Inf(1)
	}
	return bestK, bestLevel
}

// replayLevel is fillLevel's bisection for a prefix whose full demands do
// not fit, given a bracket from the screen: a probe above `above` must
// find the work over budget and one below `below` must find it within, so
// only probes inside the bracket evaluate the work sum. It returns the
// bisection's level bit for bit.
func replayLevel(jobs []*job.Job, budget, maxDemand, tol, below, above float64) float64 {
	lo, hi := 0.0, maxDemand
	for i := 0; i < 64 && hi-lo > tol; i++ {
		mid := (lo + hi) / 2
		over := mid > above
		if !over && mid >= below {
			over = workAtLevel(jobs, mid) > budget
		}
		if over {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// bracket bounds where workAtLevel(L) > budget can flip for a prefix of k
// jobs whose unfinished jobs have the sorted breakpoints starts/ends. The
// exact work W(L) is piecewise linear; the floating-point sum differs from
// it by less than (k+1)·2⁻⁵³·mass, mass = Σ |Demand| + |Processed|. Below
// the exact level of budget−e the sum is within budget, above that of
// budget+e it is over, where e also covers the rounding of the walk itself
// (slope ≤ k, breakpoints ≤ span in size). Where no such guarantee can be
// given it returns (−Inf, +Inf): every probe then evaluates the sum.
func bracket(starts, ends []float64, budget float64, k int, mass, span float64) (below, above float64) {
	e := 8 * float64(k+2) * 0x1p-53 * (mass + budget + float64(k)*span)
	if !(budget >= 0) || !(e <= math.MaxFloat64) {
		return math.Inf(-1), math.Inf(1)
	}
	below, above = crossings(starts, ends, budget-e, budget+e)
	if math.IsInf(below, 1) {
		// Unreachable when need exceeds the budget; never let the bracket
		// skip an evaluation on the strength of it.
		below = math.Inf(-1)
	}
	return below, above
}

// crossings walks the exact work W(L) = Σ (L − starts_i)⁺ − Σ (L − ends_i)⁺
// along its breakpoints and returns where it first exceeds t1 and t2
// (t1 ≤ t2), +Inf where it never does.
func crossings(starts, ends []float64, t1, t2 float64) (float64, float64) {
	l1 := math.Inf(1)
	w, x := 0.0, 0.0
	slope := 0
	i := 0
	for j := 0; j < len(ends); {
		// Next breakpoint: a start opens a unit of slope, an end closes one.
		b, d := ends[j], -1
		if i < len(starts) && starts[i] <= b {
			b, d = starts[i], 1
			i++
		} else {
			j++
		}
		if slope > 0 {
			s := float64(slope)
			nw := w + s*(b-x)
			if nw > t1 && math.IsInf(l1, 1) {
				l1 = x + (t1-w)/s
			}
			if nw > t2 {
				return l1, x + (t2-w)/s
			}
			w = nw
		}
		x = b
		slope += d
	}
	return l1, math.Inf(1)
}

// insertSorted inserts v into the ascending slice s, which has spare
// capacity for it.
func insertSorted(s []float64, v float64) []float64 {
	i := len(s)
	s = s[:i+1]
	for i > 0 && s[i-1] > v {
		s[i] = s[i-1]
		i--
	}
	s[i] = v
	return s
}

// clampLevel returns the target for job j at fill level L.
func clampLevel(j *job.Job, level float64) float64 {
	c := level
	if c < j.Processed {
		c = j.Processed
	}
	if c > j.Demand {
		c = j.Demand
	}
	return c
}

// workAtLevel is the additional work required to raise every job to the
// given level (respecting floors and caps).
func workAtLevel(jobs []*job.Job, level float64) float64 {
	w := 0.0
	for _, j := range jobs {
		c := clampLevel(j, level)
		if c > j.Processed {
			w += c - j.Processed
		}
	}
	return w
}
