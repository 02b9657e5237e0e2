package main

import (
	"fmt"

	cedr "repro"
)

// The correctness oracle. Every check that does not hold is one failed
// operation of the run.

// checkHealth reports a system failure and a quarantined query.
func checkHealth(sys *cedr.System, q *cedr.Query) []error {
	var errs []error
	if err := sys.Err(); err != nil {
		errs = append(errs, fmt.Errorf("system: %w", err))
	}
	if err := q.Err(); err != nil {
		errs = append(errs, fmt.Errorf("query quarantined: %w", err))
	}
	return errs
}

// checkAlerts is the alert oracle, run after Finish: the fleet query
// raises exactly the alerts MachineEvents planted.
func checkAlerts(q *cedr.Query, expected int) []error {
	if got := len(q.Alerts()); got != expected {
		return []error{fmt.Errorf("fleet query: %d alerts, want %d", got, expected)}
	}
	return nil
}
