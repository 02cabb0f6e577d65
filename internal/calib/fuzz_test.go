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
// core.TimeModel.Validate, so Ratio and Predict run on it; the current
// version is a retained one; and a Save followed by a Load gives back the
// same history and current version.
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
	// A file with the host_tinst key older writers recorded.
	f.Add(underflowHostFile)
	c := counts(1000, 500, 200)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decode(data)
		if err != nil {
			return
		}
		for _, v := range r.History() {
			if v.Model == nil {
				t.Fatalf("v%d has no time model", v.Version)
			}
			if err := v.Model.Validate(); err != nil {
				t.Fatalf("v%d: %v", v.Version, err)
			}
			_ = v.Model.Ratio()
			_ = v.Model.Predict(c)
		}
		if cur := r.Current(); cur != nil {
			if _, ok := r.Get(cur.Version); !ok {
				t.Fatalf("current v%d is not a retained version", cur.Version)
			}
		}
		path := filepath.Join(t.TempDir(), "model.json")
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
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
