package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"taopt/internal/scenario"
)

// FuzzScenarioDecode throws arbitrary bytes at the full
// decode-validate-compile path. Two properties must hold for every input:
// the compiler never panics, and any document that compiles as an app
// reaches a fixed point under emit — EmitApp's output recompiles to the
// same resolved spec and emits identically again.
func FuzzScenarioDecode(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])                                         // truncated mid-document
		f.Add(bytes.Replace(raw, []byte(`"kind"`), []byte(`"knd"`), 1)) // mutated envelope
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1, 2`))
	f.Add([]byte(`{"schemaVersion": 2, "kind": "app", "name": "x", "app": {}}`))
	f.Add([]byte(`{"schemaVersion": 1, "kind": "app", "name": "x", "app": {"screensMin": 0}}`))
	f.Add([]byte(`{"schemaVersion": 1, "kind": "fault-plan", "name": "x", "faults": {"context": [{"kind": "network-loss"}]}}`))
	f.Add([]byte(`{"schemaVersion": 1, "kind": "campaign", "name": "x", "campaign": {"faultGrid": [0]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := scenario.Compile(data) // must never panic
		if err != nil || c.Kind != scenario.KindApp {
			return
		}
		out, err := scenario.EmitApp(c.App)
		if err != nil {
			t.Fatalf("emit after successful compile: %v", err)
		}
		back, err := scenario.CompileApp(out)
		if err != nil {
			t.Fatalf("recompile emitted document: %v\n%s", err, out)
		}
		if back.Spec != c.App.Spec {
			t.Fatalf("emit/compile fixed point broken:\ncompiled %+v\nround-tripped %+v", c.App, back)
		}
		out2, err := scenario.EmitApp(back)
		if err != nil {
			t.Fatalf("second emission: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("second emission differs:\n%s\n%s", out, out2)
		}
	})
}
