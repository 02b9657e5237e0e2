package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	cedr "repro"
	"repro/internal/delivery"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// fleetQuery is the section 3.1 MissedRestart query every workload runs.
const fleetQuery = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)
CONSISTENCY middle`

//go:embed workloads.json
var workloadsJSON []byte

// Delivery selects the transport simulation applied to the source stream.
type Delivery struct {
	Kind             string  `json:"kind"` // "ordered" or "disordered"
	CTIMinutes       int     `json:"cti_minutes"`
	StragglerMinutes int     `json:"straggler_minutes"`
	StragglerProb    float64 `json:"straggler_prob"`
}

// Workload is one entry of workloads.json: the stream shape and the fixed
// open-loop rate.
type Workload struct {
	Name     string   `json:"name"`
	Machines int      `json:"machines"`
	Cycles   int      `json:"cycles"`
	MissProb float64  `json:"miss_prob"`
	Delivery Delivery `json:"delivery"`
	// PacedRate is the open-loop replay rate in items per second.
	PacedRate float64 `json:"paced_rate"`
	// PacedWarmup is how many leading items a paced replay pushes unpaced
	// and unsampled, so latency is measured on warm state.
	PacedWarmup int `json:"paced_warmup"`
	// PacedItems caps the paced window after the warm-up (0 = the rest of
	// the stream); items after the window are pushed unpaced, so the
	// oracle still sees the whole stream.
	PacedItems int `json:"paced_items"`
}

// loadWorkloads parses the embedded workload table.
func loadWorkloads() ([]Workload, error) {
	var doc struct {
		Workloads []Workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return doc.Workloads, nil
}

// findWorkload returns the named workload.
func findWorkload(name string) (Workload, error) {
	ws, err := loadWorkloads()
	if err != nil {
		return Workload{}, err
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Input is one workload's generated input.
type Input struct {
	// Source is the Sync-ordered logical stream (data events only).
	Source stream.Stream
	// Items is the delivered physical stream, in arrival order, with CTIs.
	Items stream.Stream
	// Expected is the number of alerts the fleet query must raise.
	Expected int
}

// Generate builds the workload's input from seed: the same seed always
// gives the same input.
func (w Workload) Generate(seed int64) Input {
	src, expected := workload.MachineEvents(workload.Machines{
		Seed:            seed,
		Machines:        w.Machines,
		Cycles:          w.Cycles,
		RestartDeadline: 5 * temporal.Minute,
		MissProb:        w.MissProb,
		CycleGap:        30 * temporal.Minute,
	})
	period := temporal.Duration(w.Delivery.CTIMinutes) * temporal.Minute
	cfg := delivery.Ordered(period)
	if w.Delivery.Kind == "disordered" {
		cfg = delivery.Disordered(seed, period,
			temporal.Duration(w.Delivery.StragglerMinutes)*temporal.Minute, w.Delivery.StragglerProb)
	}
	return Input{Source: src, Items: delivery.Deliver(src, cfg), Expected: expected}
}

// register adds the fleet query to sys as every workload registers it.
func register(sys *cedr.System) (*cedr.Query, error) {
	return sys.Register(fleetQuery, cedr.WithShards(1))
}

// compile compiles the fleet query exactly as cedr.System.Register does.
func compile() (*plan.Plan, error) {
	return plan.Compile(fleetQuery, plan.WithShards(1), plan.WithSharing())
}
