package main

import (
	"bytes"
	"context"
	"fmt"
	"go/format"
	"io"

	floorplanner "repro"
)

// writeRefs solves every offline suite instance once with its engine,
// checks the answer is proven, and writes refs.go.
func writeRefs(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprint(&b, "package main\n\n// Code generated by perfbench -print-refs; DO NOT EDIT.\n\n")
	fmt.Fprint(&b, "// referenceObjectives are the proven objectives of the offline suite\n// instances, each under the engine its suite runs.\n")
	fmt.Fprint(&b, "var referenceObjectives = map[string]float64{\n")
	for _, inst := range offlineSuite() {
		p := inst.build()
		sol, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{Engine: inst.engine, Workers: 1, TimeLimit: opBudget})
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		if !sol.Proven {
			return fmt.Errorf("%s: %s did not prove optimality", inst.name, inst.engine)
		}
		fmt.Fprintf(&b, "\t%q: %.17g,\n", inst.name, sol.Objective(p))
	}
	fmt.Fprint(&b, "}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		return err
	}
	_, err = w.Write(src)
	return err
}
