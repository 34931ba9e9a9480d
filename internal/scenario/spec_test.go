package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polyecc/internal/scenario"
)

// The golden specs under testdata/specs must parse, validate, and
// survive a marshal → parse round trip unchanged in meaning.
func TestGoldenSpecsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("testdata/specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden specs under testdata/specs")
	}
	for _, path := range paths {
		s, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		buf, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		again, err := scenario.Parse(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: reparse of own marshal: %v", path, err)
		}
		buf2, err := again.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: remarshal: %v", path, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Errorf("%s: marshal is not a fixed point:\n%s\n---\n%s", path, buf, buf2)
		}
	}
}

// Every preset must build a spec that validates, and its exported form
// must round-trip like a user-authored file (the -dump-spec contract).
func TestPresetSpecsValidate(t *testing.T) {
	for _, p := range scenario.Presets() {
		s := p.Spec()
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
		}
		if s.Trials <= 0 {
			t.Errorf("preset %s: no default budget applied", p.Name)
		}
		buf, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("preset %s: marshal: %v", p.Name, err)
		}
		if _, err := scenario.Parse(bytes.NewReader(buf)); err != nil {
			t.Errorf("preset %s: exported spec does not reparse: %v", p.Name, err)
		}
	}
}

// Presets resolve by their canonical names only; the retired alias
// spellings are unknown names.
func TestLookupPresetAliases(t *testing.T) {
	for _, name := range []string{"figure4", "figure5", "polysoak", "stormsoak", "memctlsoak"} {
		if p, ok := scenario.LookupPreset(name); !ok || p.Name != name {
			t.Errorf("LookupPreset(%q) missed", name)
		}
	}
	// The retired alias spellings no longer resolve: a preset has one name.
	for _, alias := range []string{"fig4", "fig5", "poly", "soak", "storm", "memctl", "no-such-scenario"} {
		if _, ok := scenario.LookupPreset(alias); ok {
			t.Errorf("LookupPreset accepted %q; only canonical names resolve", alias)
		}
	}
}

// Hostile inputs: every malformed spec must be rejected at Parse or
// Validate with a diagnostic naming the problem — never panic, never
// run.
func TestParseRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty", ``, "EOF"},
		{"not json", `{"name": `, "unexpected EOF"},
		{"unknown field", `{"name":"x","kind":"decode","bogus":1,"clients":[{"name":"a"}]}`, "bogus"},
		{"trailing garbage", `{"name":"x","clients":[{"name":"a"}]} {"second":true}`, "trailing data"},
		{"wrong type", `{"name":"x","trials":"many","clients":[{"name":"a"}]}`, "trials"},
		{"no name", `{"clients":[{"name":"a"}]}`, "needs a name"},
		{"unknown kind", `{"name":"x","kind":"quantum","clients":[{"name":"a"}]}`, "unknown kind"},
		{"negative trials", `{"name":"x","trials":-5,"clients":[{"name":"a"}]}`, "negative trial budget"},
		{"no clients", `{"name":"x","kind":"decode"}`, "at least one client"},
		{"unnamed client", `{"name":"x","clients":[{"fraction":1}]}`, "needs a name"},
		{"duplicate client", `{"name":"x","clients":[{"name":"a","fraction":0.5},{"name":"a","fraction":0.5}]}`, "duplicate client"},
		{"fractions off", `{"name":"x","clients":[{"name":"a","fraction":0.5},{"name":"b","fraction":0.4}]}`, "sum to"},
		{"negative fraction", `{"name":"x","clients":[{"name":"a","fraction":-0.5},{"name":"b","fraction":1.5}]}`, "negative fraction"},
		{"unknown selection", `{"name":"x","selection":"roulette","clients":[{"name":"a"}]}`, "unknown selection"},
		{"unknown code", `{"name":"x","code":"poly-m0","clients":[{"name":"a"}]}`, "poly-m0"},
		{"unknown fault kind", `{"name":"x","clients":[{"name":"a","faults":{"kind":"cosmic"}}]}`, "unknown fault kind"},
		{"unknown model", `{"name":"x","clients":[{"name":"a","faults":{"kind":"model","model":"quark"}}]}`, "quark"},
		{"rate over 1", `{"name":"x","clients":[{"name":"a","faults":{"kind":"in-model","rate":1.5}}]}`, "outside [0,1]"},
		{"rs-mask on decode", `{"name":"x","kind":"decode","clients":[{"name":"a","faults":{"kind":"rs-mask"}}]}`, "rs-mask"},
		{"in-model on programs", `{"name":"x","kind":"programs","clients":[{"name":"chase","faults":{"kind":"in-model"}}]}`, "decode scenarios"},
		{"unknown program", `{"name":"x","kind":"programs","clients":[{"name":"nosuch","faults":{"kind":"rs-mask"}}]}`, "unknown program"},
		{"unknown activation", `{"name":"x","kind":"inference","clients":[{"name":"a","faults":{"kind":"rs-mask"},"inference":{"activation":"gelu"}}]}`, "unknown activation"},
		{"unknown arrival", `{"name":"x","clients":[{"name":"a","arrival":{"process":"weibull"}}]}`, "unknown arrival process"},
		{"poisson without tick", `{"name":"x","clients":[{"name":"a","arrival":{"process":"poisson"}}]}`, "need tick_ns"},
		{"unknown access", `{"name":"x","clients":[{"name":"a","access":{"pattern":"strided"}}]}`, "unknown access pattern"},
		{"zipf without lines", `{"name":"x","clients":[{"name":"a","access":{"pattern":"zipf"}}]}`, "line space"},
		{"zipf bad skew", `{"name":"x","lines":64,"clients":[{"name":"a","access":{"pattern":"zipf","zipf_s":0.5}}]}`, "zipf_s"},
		{"hotrow too small", `{"name":"x","lines":16,"row_lines":8,"clients":[{"name":"a","access":{"pattern":"hotrow"}}]}`, "hotrow"},
		{"fixed line outside", `{"name":"x","lines":64,"clients":[{"name":"a","access":{"pattern":"fixed","line":64}}]}`, "outside"},
		{"epoch out of range", `{"name":"x","clients":[{"name":"a","epochs":[{"from":1.5,"faults":{"kind":"in-model"}}]}]}`, "outside [0,1)"},
		{"epochs unsorted", `{"name":"x","clients":[{"name":"a","epochs":[{"from":0.5,"faults":{"kind":"in-model"}},{"from":0.25,"faults":{"kind":"none"}}]}]}`, "sorted"},
		{"epoch without env", `{"name":"x","clients":[{"name":"a","epochs":[{"from":0.5}]}]}`, "fault environment"},
		{"standing without tick", `{"name":"x","clients":[{"name":"a","faults":{"kind":"in-model","standing":true}}]}`, "tick_ns"},
		{"scrub bad interval", `{"name":"x","tick_ns":1000,"scrub":{"interval_ms":0},"clients":[{"name":"a"}]}`, "interval_ms"},
		{"memctl on programs", `{"name":"x","kind":"programs","tick_ns":1000,"memctl":{"enabled":true},"clients":[{"name":"chase","faults":{"kind":"rs-mask"}}]}`, "decode or replay"},
		{"memctl without tick", `{"name":"x","kind":"decode","memctl":{"enabled":true},"clients":[{"name":"a"}]}`, "tick_ns"},
		{"phase unknown client", `{"name":"x","tick_ns":1,"clients":[{"name":"a"}],"phases":[{"name":"p","fraction":1,"clients":["ghost"]}]}`, "unknown client"},
		{"phase fractions off", `{"name":"x","clients":[{"name":"a"}],"phases":[{"name":"p","fraction":0.5}]}`, "phase fractions"},
		{"phase without name", `{"name":"x","clients":[{"name":"a"}],"phases":[{"fraction":1}]}`, "needs a name"},
		{"phases on block", `{"name":"x","selection":"block","clients":[{"name":"a"}],"phases":[{"name":"p","fraction":1}]}`, "block selection"},
		{"replay with clients", `{"name":"x","kind":"replay","clients":[{"name":"a"}]}`, "replay"},
		{"inference on programs client", `{"name":"x","kind":"programs","clients":[{"name":"chase","faults":{"kind":"rs-mask"},"inference":{}}]}`, "inference config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("hostile input accepted: %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the problem (want substring %q)", err, tc.want)
			}
		})
	}
}

// A spec with a huge declared trial count must not pre-allocate its way
// into an OOM at parse time: parsing is cheap regardless of trials.
func TestParseHugeBudgetIsCheap(t *testing.T) {
	s, err := scenario.Parse(strings.NewReader(
		`{"name":"x","trials":2000000000,"clients":[{"name":"a","faults":{"kind":"in-model"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 2000000000 {
		t.Fatalf("trials = %d", s.Trials)
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := scenario.ParseFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file parsed")
	}
	p := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ParseFile(p); err == nil {
		t.Fatal("empty file parsed")
	}
}

// SetBudget must scale per client for the block-stratified kinds even
// before defaults are resolved (the -n flag path), and totally for mix.
func TestSetBudgetBlockKinds(t *testing.T) {
	p, _ := scenario.LookupPreset("figure4")
	s := p.Build()
	s.SetBudget(10)
	if want := 10 * len(s.Clients); s.Trials != want {
		t.Fatalf("figure4 budget 10 -> %d trials, want %d (per client)", s.Trials, want)
	}
	p, _ = scenario.LookupPreset("stormsoak")
	s = p.Build()
	s.SetBudget(10)
	if s.Trials != 10 {
		t.Fatalf("stormsoak budget 10 -> %d trials, want 10 (total)", s.Trials)
	}
}
