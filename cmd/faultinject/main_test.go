package main

import (
	"strings"
	"testing"
)

// A run names its scenario one way: two selectors, or -memctl without
// -replay, are rejected with the conflict named instead of one silently
// winning.
func TestResolveSpecSelectors(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	for _, tc := range []struct {
		name                   string
		spec, replay, scenario string
		memctl                 bool
		explicit               map[string]bool
		wantErr                string // substring; empty means success
		wantName               string // resolved spec name on success
	}{
		{name: "bare runs figure4", scenario: "figure4", wantName: "figure4"},
		{name: "preset", scenario: "stormsoak", explicit: set("scenario"), wantName: "stormsoak"},
		{name: "replay", replay: "ev.jsonl", scenario: "figure4", explicit: set("replay"), wantName: "replay"},
		{name: "replay with memctl", replay: "ev.jsonl", scenario: "figure4", memctl: true,
			explicit: set("replay", "memctl"), wantName: "replay"},
		{name: "spec and scenario", spec: "a.json", scenario: "memctlsoak",
			explicit: set("spec", "scenario"), wantErr: "-spec and -scenario"},
		{name: "spec and replay", spec: "a.json", replay: "ev.jsonl", scenario: "figure4",
			explicit: set("spec", "replay"), wantErr: "-spec and -replay"},
		{name: "replay and scenario", replay: "ev.jsonl", scenario: "polysoak",
			explicit: set("replay", "scenario"), wantErr: "-replay and -scenario"},
		{name: "memctl alone", scenario: "figure4", memctl: true, explicit: set("memctl"),
			wantErr: "-memctl only modifies -replay"},
		{name: "retired alias", scenario: "poly", explicit: set("scenario"), wantErr: `unknown scenario "poly"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explicit := tc.explicit
			if explicit == nil {
				explicit = map[string]bool{}
			}
			s, _, err := resolveSpec(tc.spec, tc.replay, tc.scenario, tc.memctl, explicit)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != tc.wantName {
				t.Fatalf("resolved %q, want %q", s.Name, tc.wantName)
			}
			if memctlOn := s.Memctl != nil && s.Memctl.Enabled; memctlOn != tc.memctl {
				t.Fatalf("memctl enabled = %v, want %v", memctlOn, tc.memctl)
			}
		})
	}
}
