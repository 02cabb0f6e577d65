package calib

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRegistry feeds arbitrary bytes to the model-file decoder. It
// must never panic, and every registry it returns must be one the model
// endpoints can serve: each version has a time model that passes
// core.TimeModel.Validate, also after a host rescale, so Ratio and Predict
// run on it; the current version is a retained one; and a Save followed by
// a Load gives back the same history and current version.
func FuzzDecodeRegistry(f *testing.F) {
	for _, path := range []string{"testdata/registry_compat.json", "testdata/registry_mem_only.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(releaseSerial)
	f.Add(releaseParallel)
	// A file whose current version is past the retention bound.
	versions := make([]string, Retain+1)
	for i := range versions {
		versions[i] = fmt.Sprintf(`{"version": %d, "source": "api", "model": {"tinst": 1e-9, "c_mgjn": %d, "c_nljn": 2, "c_hsjn": 4, "c0": 1}}`, i+1, i+1)
	}
	f.Add([]byte(`{"current": 1, "versions": [` + strings.Join(versions, ", ") + `]}`))
	c := counts(1000, 500, 200)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, host := range []float64{0, 1e-9} {
			r, err := decode(data, host)
			if err != nil {
				continue
			}
			for _, v := range r.History() {
				if v.Model == nil {
					t.Fatalf("host %v: v%d has no time model", host, v.Version)
				}
				if err := v.Model.Validate(); err != nil {
					t.Fatalf("host %v: v%d: %v", host, v.Version, err)
				}
				_ = v.Model.Ratio()
				_ = v.Model.Predict(c)
			}
			if cur := r.Current(); cur != nil {
				if _, ok := r.Get(cur.Version); !ok {
					t.Fatalf("host %v: current v%d is not a retained version", host, cur.Version)
				}
			}
		}
		r, err := decode(data, 0)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "model.json")
		if err := r.Save(path, 0); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path, 0)
		if err != nil {
			t.Fatalf("reloading a saved registry: %v", err)
		}
		if got, want := back.History(), r.History(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the history:\n got  %+v\n want %+v", got, want)
		}
		if back.Version() != r.Version() {
			t.Fatalf("round trip moved the current version from v%d to v%d", r.Version(), back.Version())
		}
	})
}
