package qopt

import (
	"math"

	"goodenough/internal/job"
	"goodenough/internal/quality"
)

// Allocate is AllocateEDF for jobs in any order: it sorts a copy into EDF
// order and returns the total remaining work scheduled.
func Allocate(now float64, jobs []*job.Job, rate float64, f quality.Function) float64 {
	if len(jobs) == 0 {
		return 0
	}
	sorted := append([]*job.Job(nil), jobs...)
	job.SortEDF(sorted)
	total, _ := AllocateEDF(now, sorted, rate, f, nil)
	return total
}

// BestQuality returns the batch quality Σf(Target)/Σf(Demand) that the
// current targets would achieve.
func BestQuality(jobs []*job.Job, f quality.Function) float64 {
	num, den := 0.0, 0.0
	for _, j := range jobs {
		if j.Demand <= 0 {
			continue
		}
		num += f.Value(j.Target)
		den += f.Value(j.Demand)
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// allocateEDFBisect is AllocateEDF on the reference path: the same budgets,
// solved by allocateSegmentBisect.
func allocateEDFBisect(now float64, sorted []*job.Job, rate float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if rate <= 0 {
		for _, j := range sorted {
			j.SetTarget(j.Processed)
		}
		return 0
	}
	budgets := make([]float64, len(sorted))
	for k, j := range sorted {
		w := j.Deadline - now
		if w < 0 {
			w = 0
		}
		budgets[k] = rate * w
	}
	for k := 1; k < len(budgets); k++ {
		if budgets[k] < budgets[k-1] {
			budgets[k] = budgets[k-1]
		}
	}
	total := 0.0
	allocateSegmentBisect(sorted, budgets, &total)
	return total
}

// allocateSegmentBisect is the reference Quality-OPT round: bisect the fill
// level of every prefix, fix the prefix with the lowest level, repeat on
// the suffix. allocateSegment must reproduce its targets and total bit for
// bit.
func allocateSegmentBisect(jobs []*job.Job, budgets []float64, total *float64) {
	for len(jobs) > 0 {
		bestK := -1
		bestLevel := math.Inf(1)
		for k := range jobs {
			level := fillLevel(jobs[:k+1], budgets[k])
			if level < bestLevel-1e-12 || (level <= bestLevel+1e-12 && k > bestK && level != math.Inf(1)) {
				bestLevel = level
				bestK = k
			}
		}
		if bestK < 0 || math.IsInf(bestLevel, 1) {
			for _, j := range jobs {
				*total += j.Demand - math.Min(j.Demand, j.Processed)
				j.SetTarget(j.Demand)
			}
			return
		}
		used := 0.0
		for _, j := range jobs[:bestK+1] {
			c := clampLevel(j, bestLevel)
			used += c - math.Min(c, j.Processed)
			j.SetTarget(c)
		}
		*total += used
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

// fillLevel bisects for the common level L such that raising every job to
// clampLevel(L) consumes `budget` additional work. If the full demands fit
// within the budget it returns +Inf (no level binds).
func fillLevel(jobs []*job.Job, budget float64) float64 {
	need := 0.0
	maxDemand := 0.0
	for _, j := range jobs {
		if j.Demand > j.Processed {
			need += j.Demand - j.Processed
		}
		if j.Demand > maxDemand {
			maxDemand = j.Demand
		}
	}
	if need <= budget+1e-12 {
		return math.Inf(1)
	}
	lo, hi := 0.0, maxDemand
	for i := 0; i < 64 && hi-lo > 1e-12*math.Max(maxDemand, 1); i++ {
		mid := (lo + hi) / 2
		if workAtLevel(jobs, mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}
