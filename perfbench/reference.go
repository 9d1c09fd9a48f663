package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"goodenough"
	"goodenough/internal/cluster"
	"goodenough/internal/sched"
)

// Pool sizes: each run walks a seeded permutation of its workload's pool,
// so different benchmark seeds time different inputs while every input has
// a recorded result to check against.
const (
	simPool   = 64
	fleetPool = 32
)

// outcomeRecord is the part of a simulation's result the correctness check
// compares: counts exactly, Quality and Energy within relTol.
type outcomeRecord struct {
	Seed        uint64  `json:"seed"`
	Jobs        int     `json:"jobs"`
	Completed   int64   `json:"completed"`
	Expired     int64   `json:"expired"`
	Dropped     int64   `json:"dropped"`
	LostForever int     `json:"lost_forever"`
	Quality     float64 `json:"quality"`
	Energy      float64 `json:"energy"`
}

// references holds the recorded outcomes, keyed by workload then seed.
type references struct {
	Sim   []outcomeRecord `json:"sim-overload"`
	Fleet []outcomeRecord `json:"fleet-chaos"`

	sim, fleet map[uint64]outcomeRecord
}

//go:embed reference.json
var referenceJSON []byte

const relTol = 1e-9

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	r.sim = make(map[uint64]outcomeRecord, len(r.Sim))
	for _, rec := range r.Sim {
		r.sim[rec.Seed] = rec
	}
	r.fleet = make(map[uint64]outcomeRecord, len(r.Fleet))
	for _, rec := range r.Fleet {
		r.fleet[rec.Seed] = rec
	}
	if len(r.sim) != simPool || len(r.fleet) != fleetPool {
		return nil, fmt.Errorf("reference.json holds %d sim and %d fleet seeds, want %d and %d",
			len(r.sim), len(r.fleet), simPool, fleetPool)
	}
	return &r, nil
}

func simRecord(seed uint64, res sched.Result) outcomeRecord {
	return outcomeRecord{
		Seed: seed, Jobs: res.Jobs, Completed: res.Completed, Expired: res.Expired,
		Dropped:     res.DroppedJobs,
		LostForever: res.Jobs - int(res.Completed+res.Expired+res.DroppedJobs),
		Quality:     res.Quality, Energy: res.Energy,
	}
}

func fleetRecord(seed uint64, res cluster.Result) outcomeRecord {
	return outcomeRecord{
		Seed: seed, Jobs: res.Jobs, Completed: res.Completed, Expired: res.Expired,
		Dropped: res.Dropped, LostForever: res.LostForever,
		Quality: res.Quality, Energy: res.Energy,
	}
}

func (r *references) checkSim(seed uint64, res sched.Result) error {
	return compareRecord(r.sim, simRecord(seed, res))
}

func (r *references) checkFleet(seed uint64, res cluster.Result) error {
	return compareRecord(r.fleet, fleetRecord(seed, res))
}

func compareRecord(pool map[uint64]outcomeRecord, got outcomeRecord) error {
	want, ok := pool[got.Seed]
	if !ok {
		return fmt.Errorf("seed %d has no reference", got.Seed)
	}
	if got.LostForever != 0 {
		return fmt.Errorf("seed %d: %d jobs never finalized", got.Seed, got.LostForever)
	}
	if got.Jobs != want.Jobs || got.Completed != want.Completed ||
		got.Expired != want.Expired || got.Dropped != want.Dropped {
		return fmt.Errorf("seed %d: counts %+v, want %+v", got.Seed, got, want)
	}
	if !closeRel(got.Quality, want.Quality) || !closeRel(got.Energy, want.Energy) {
		return fmt.Errorf("seed %d: quality %v energy %v, want %v and %v",
			got.Seed, got.Quality, got.Energy, want.Quality, want.Energy)
	}
	return nil
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// record runs every pool seed through the public entry points,
// goodenough.Run and goodenough.RunFleet, and writes the outcomes to path.
func record(path string) error {
	var r references
	for s := uint64(1); s <= simPool; s++ {
		cfg := goodenough.DefaultConfig()
		cfg.ArrivalRate = simRate
		cfg.RandomWindow = true
		cfg.DurationSec = simDuration
		cfg.Seed = s
		res, err := goodenough.Run(cfg)
		if err != nil {
			return err
		}
		r.Sim = append(r.Sim, outcomeRecord{
			Seed: s, Jobs: res.Jobs, Completed: res.Completed, Expired: res.Expired,
			Dropped:     res.DroppedJobs,
			LostForever: res.Jobs - int(res.Completed+res.Expired+res.DroppedJobs),
			Quality:     res.Quality, Energy: res.Energy,
		})
	}
	for s := uint64(1); s <= fleetPool; s++ {
		fc := goodenough.DefaultFleetConfig()
		fc.Machines = fleetMachines
		fc.ArrivalRate = fleetRate
		fc.DurationSec = fleetDuration
		fc.MachineMTBFSec = fleetMTBF
		fc.MachineMTTRSec = fleetMTTR
		fc.Seed = s
		t := time.Now()
		res, err := goodenough.RunFleet(fc)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleet seed %d: %d jobs in %v\n", s, res.Jobs, time.Since(t).Round(time.Millisecond))
		r.Fleet = append(r.Fleet, outcomeRecord{
			Seed: s, Jobs: res.Jobs, Completed: res.Completed, Expired: res.Expired,
			Dropped: res.Dropped, LostForever: res.LostForever,
			Quality: res.Quality, Energy: res.Energy,
		})
	}
	out, err := json.MarshalIndent(&r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
