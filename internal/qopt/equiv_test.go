package qopt

import (
	"math"
	"math/big"
	"testing"

	"goodenough/internal/job"
	"goodenough/internal/rng"
)

// bytesPerJob is how many input bytes decodeQueue spends on one job.
const bytesPerJob = 5

// decodeQueue turns data into an EDF-ordered queue at time now, at most 64
// jobs. Per job: byte 0 picks the deadline (at or past `now`, equal to the
// previous job's, or up to 0.5 s ahead), bytes 1–2 the demand (up to 1000
// units, non-dyadic), byte 3 the processed floor (a fraction of the demand,
// none, above the demand, or NaN), byte 4 a zero, huge, subnormal, nearly
// overflowing or NaN demand.
func decodeQueue(data []byte, now float64) []*job.Job {
	n := min(len(data)/bytesPerJob, 64)
	jobs := make([]*job.Job, 0, n)
	prev := now
	for i := range n {
		b := data[bytesPerJob*i : bytesPerJob*(i+1)]
		deadline := now + float64(b[0])/255*0.5
		switch {
		case b[0] < 24:
			deadline = now - float64(b[0])*0.01
		case b[0]%8 == 7:
			deadline = prev
		}
		prev = deadline
		demand := float64(uint16(b[1])<<8|uint16(b[2])) / 65.535
		switch b[4] {
		case 0:
			demand = 0
		case 255:
			demand *= 1e9
		case 254:
			demand = math.Ldexp(demand, -1062)
		case 253:
			demand = math.Ldexp(demand, 1000)
		case 252:
			demand = math.NaN()
		}
		j := job.New(i, 0, deadline, demand)
		switch {
		case b[3] < 200:
			j.Advance(demand * float64(b[3]) / 221)
		case b[3] < 230:
			j.Processed = demand + float64(b[3]-199)*0.37
		case b[3] == 255:
			j.Processed = math.NaN()
		}
		jobs = append(jobs, j)
	}
	job.SortEDF(jobs)
	return jobs
}

// sameAsBisect runs AllocateEDF and the bisection oracle on two copies of
// the queue and reports any difference in the total or a target, bit for
// bit. It returns the scratch AllocateEDF handed back.
func sameAsBisect(t testing.TB, data []byte, now, rate float64, scratch []float64) []float64 {
	t.Helper()
	got, want := decodeQueue(data, now), decodeQueue(data, now)
	total, scratch := AllocateEDF(now, got, rate, nil, scratch)
	wantTotal := allocateEDFBisect(now, want, rate)
	if math.Float64bits(total) != math.Float64bits(wantTotal) {
		t.Fatalf("rate %v, %d jobs: total %v, bisection %v", rate, len(got), total, wantTotal)
	}
	for i := range got {
		if math.Float64bits(got[i].Target) != math.Float64bits(want[i].Target) || got[i].CutCount != want[i].CutCount {
			t.Fatalf("rate %v, job %d of %d: target %v (%d cuts), bisection %v (%d cuts)",
				rate, i, len(got), got[i].Target, got[i].CutCount, want[i].Target, want[i].CutCount)
		}
	}
	return scratch
}

// pinnedRate returns a rate at which prefix k's budget is, to within the
// nudge of `ulps` units in the last place, the work of filling the prefix
// to level maxDemand·2^-halvings. That level is a probe of fillLevel's
// bisection, so rounding alone decides the probe: the case where an exact
// water level and the bisection part ways. It returns 0 when the prefix
// has no window left or the level costs no work.
func pinnedRate(jobs []*job.Job, now float64, k, halvings, ulps int) float64 {
	maxDemand := 0.0
	for _, j := range jobs[:k+1] {
		maxDemand = max(maxDemand, j.Demand)
	}
	w := jobs[k].Deadline - now
	work := workAtLevel(jobs[:k+1], math.Ldexp(maxDemand, -halvings))
	if w <= 0 || work <= 0 {
		return 0
	}
	rate := work / w
	for ; ulps > 0; ulps-- {
		rate = math.Nextafter(rate, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		rate = math.Nextafter(rate, 0)
	}
	return rate
}

func FuzzAllocateEDFVsBisect(f *testing.F) {
	r := rng.New(11)
	for _, rate := range []float64{2000, 40000, 0, 1e-9, 1e12, 1e300, math.Inf(1)} {
		data := make([]byte, bytesPerJob*(8+r.Intn(40)))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		f.Add(data, rate)
	}
	f.Add([]byte{30, 1, 0, 0, 1, 30, 1, 0, 0, 1, 31, 1, 0, 0, 1}, 500.0)
	f.Fuzz(func(t *testing.T, data []byte, rate float64) {
		// A nonzero first byte pins the rate to a bisection probe instead.
		if len(data) > bytesPerJob && data[0] != 0 {
			pin := data[0]
			data = data[1:]
			jobs := decodeQueue(data, 10)
			rate = pinnedRate(jobs, 10, int(pin)%len(jobs), 1+int(pin>>4)%3, int(pin>>6)-1)
		}
		sameAsBisect(t, data, 10, rate, nil)
	})
}

// TestAllocateEDFMatchesBisect is the fuzzer's contract on a fixed set of
// seeded instances: short queues mostly, some up to 64 jobs, a small byte
// alphabet in a third of them (so deadlines, demands and floors tie), rates
// from starved to ample plus zero, huge and infinite, a quarter of them
// pinned to a bisection probe, and one scratch reused throughout so stale
// contents cannot leak into a result.
func TestAllocateEDFMatchesBisect(t *testing.T) {
	instances := 100_000
	if testing.Short() {
		instances = 10_000
	}
	r := rng.New(12)
	var scratch []float64
	data := make([]byte, 0, bytesPerJob*64)
	for range instances {
		n := 1 + r.Intn(12)
		if r.Intn(10) == 0 {
			n = 1 + r.Intn(64)
		}
		alphabet := 256
		if r.Intn(3) == 0 {
			alphabet = 2 + r.Intn(6)
		}
		data = data[:bytesPerJob*n]
		for i := range data {
			data[i] = byte(r.Intn(alphabet) * (256 / alphabet))
		}
		rate := math.Exp(math.Log(10) + r.Float64()*math.Log(1e6))
		switch r.Intn(20) {
		case 0:
			rate = 0
		case 1:
			rate = 1e12
		case 2:
			rate = math.Inf(1)
		case 3, 4, 5, 6, 7:
			jobs := decodeQueue(data, 10)
			rate = pinnedRate(jobs, 10, r.Intn(n), 1+r.Intn(3), r.Intn(3)-1)
		}
		scratch = sameAsBisect(t, data, 10, rate, scratch)
	}
}

// exactWork is workAtLevel in exact arithmetic for jobs with no NaN volume.
// 2200 bits span every finite float64 (2⁻¹⁰⁷⁴..2¹⁰²⁴) with room for the
// carries of 64 terms; it panics if a partial sum is ever rounded.
func exactWork(jobs []*job.Job, level float64) *big.Float {
	sum := new(big.Float).SetPrec(2200)
	term := new(big.Float).SetPrec(2200)
	for _, j := range jobs {
		if c := clampLevel(j, level); c > j.Processed {
			term.Sub(big.NewFloat(c), big.NewFloat(j.Processed))
			if sum.Add(sum, term); term.Acc() != big.Exact || sum.Acc() != big.Exact {
				panic("exactWork: rounded")
			}
		}
	}
	return sum
}

// TestAllocateSegmentMatchesBisectInRoundingGaps gives one prefix a budget
// strictly between the exact work at a bisection probe and its float sum,
// where the exact level and the float comparison disagree about the probe,
// on either side. Any bracket too narrow for the rounding of the sum, at
// either end, answers such a probe differently from the bisection.
func TestAllocateSegmentMatchesBisectInRoundingGaps(t *testing.T) {
	r := rng.New(13)
	data := make([]byte, 0, bytesPerJob*64)
	gaps := 0
	for gaps < 3000 {
		n := 2 + r.Intn(30)
		data = data[:bytesPerJob*n]
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		queue := decodeQueue(data, 10)
		k := r.Intn(n)
		maxDemand := 0.0
		for _, j := range queue[:k+1] {
			maxDemand = max(maxDemand, j.Demand)
			if math.IsNaN(j.Demand) || math.IsNaN(j.Processed) {
				maxDemand = math.NaN()
				break
			}
		}
		if math.IsNaN(maxDemand) {
			continue
		}
		level := math.Ldexp(maxDemand, -1-r.Intn(3))
		sum := workAtLevel(queue[:k+1], level)
		exact, _ := exactWork(queue[:k+1], level).Float64()
		// exact is the float nearest the exact work; step off it towards
		// the float sum to land strictly between the two.
		gap := math.Nextafter(exact, sum)
		if exact == sum || gap == sum {
			continue
		}
		gaps++
		rate := 500 + r.Float64()*20000
		got, want := decodeQueue(data, 10), decodeQueue(data, 10)
		budgets, wantBudgets := make([]float64, n), make([]float64, n)
		for i, j := range got {
			budgets[i] = rate * max(j.Deadline-10, 0)
		}
		budgets[k] = gap
		copy(wantBudgets, budgets)
		total, wantTotal := 0.0, 0.0
		allocateSegment(got, budgets, newScreen(make([]float64, 5*n), n), &total)
		allocateSegmentBisect(want, wantBudgets, &wantTotal)
		if math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("prefix %d of %d, level %v: total %v, bisection %v", k, n, level, total, wantTotal)
		}
		for i := range got {
			if math.Float64bits(got[i].Target) != math.Float64bits(want[i].Target) {
				t.Fatalf("prefix %d of %d, level %v, job %d: target %v, bisection %v",
					k, n, level, i, got[i].Target, want[i].Target)
			}
		}
	}
}

// BenchmarkAllocateEDFDeep is one Quality-OPT call on a deep queue: 48 EDF
// jobs, a third of them part-processed, at a rate where several prefixes
// bind, so the call runs many segment rounds.
func BenchmarkAllocateEDFDeep(b *testing.B) {
	r := rng.New(7)
	jobs := make([]*job.Job, 48)
	for i := range jobs {
		jobs[i] = mkJob(i, 0.02+r.Float64()*0.4, 130+r.Float64()*870)
	}
	job.SortEDF(jobs)
	processed := make([]float64, len(jobs))
	for i, j := range jobs {
		if i%3 == 0 {
			processed[i] = r.Float64() * 0.6 * j.Demand
		}
	}
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, j := range jobs {
			j.Processed = processed[i]
			j.RestoreTarget()
		}
		_, scratch = AllocateEDF(0, jobs, 30000, nil, scratch)
	}
}
