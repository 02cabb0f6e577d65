package calib

import (
	"flag"
	"fmt"
	"testing"

	"cote/internal/experiments"
	"cote/internal/workload"
)

var update = flag.Bool("update", false, "refit and rewrite the shipped release model files")

// The shipped release models decode through Load's decoder, each as one
// version with source "release". Under -update the test first refits them
// with the fit cotebench -fig ct runs (experiments.TrainModel on the
// linear, star and random workloads, seed 42) and saves them at the
// fit's nominal Tinst of 1e-9:
//
//	go test ./internal/calib -run TestReleaseModels -update
//
// It checks that the files load, not their timed values, which move with
// every refit.
func TestReleaseModels(t *testing.T) {
	if *update {
		for _, nodes := range []int{1, 4} {
			m, err := experiments.TrainModel([]*workload.Workload{
				workload.Linear(nodes), workload.Star(nodes), workload.Random(42, 12, 10, nodes),
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			reg.Install(m, "release", 0, 0)
			name := "release_serial.json"
			if nodes > 1 {
				name = "release_parallel.json"
			}
			if err := reg.Save(name); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v", name, m)
		}
		return
	}
	var models []string
	for _, nodes := range []int{1, 4} {
		r, err := Release(nodes)
		if err != nil {
			t.Fatal(err)
		}
		v := r.Current()
		if len(r.History()) != 1 || v == nil || v.Version != 1 || v.Source != "release" || v.Model == nil || v.Model.Tinst <= 0 {
			t.Fatalf("nodes=%d: release registry %+v, want one version 1 from the release with a model", nodes, r.History())
		}
		models = append(models, fmt.Sprint(*v.Model))
	}
	if models[0] == models[1] {
		t.Fatalf("serial and parallel release models are the same: %s", models[0])
	}
}
