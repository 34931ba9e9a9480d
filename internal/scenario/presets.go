package scenario

import (
	"sort"

	"polyecc/internal/workload"
)

// Preset is one built-in scenario: one of the paper's evaluation
// campaigns expressed as a spec. `faultinject -scenario <name>` runs
// it; `faultinject -list-scenarios` prints this registry.
type Preset struct {
	// Name is the name -scenario takes.
	Name string
	// Doc is the one-line description shown by -list-scenarios.
	Doc string
	// DefaultTrials is the budget used when the caller sets none, in
	// the same per-client/total sense SetBudget applies.
	DefaultTrials int
	// Build assembles a fresh spec (no trial budget; callers apply
	// SetBudget and may override Seed/Code).
	Build func() *Spec
}

var presets = []Preset{
	{
		Name:          "figure4",
		Doc:           "§III-B program study: paired RS-miscorrection injections into plaintext (NE) vs encrypted (E) memory for every synthetic workload",
		DefaultTrials: 2000,
		Build: func() *Spec {
			s := &Spec{Name: "figure4", Kind: KindPrograms, Seed: 5}
			for _, p := range workload.Programs() {
				s.Clients = append(s.Clients, Client{
					Name:   p.Name(),
					Faults: &FaultEnv{Kind: "rs-mask"},
				})
			}
			return s
		},
	},
	{
		Name:          "figure5",
		Doc:           "§III-C inference study: one corrupted weight cacheline per trial, accuracy histograms for plain, encrypted, and FHE-like models",
		DefaultTrials: 2500,
		Build: func() *Spec {
			return &Spec{
				Name: "figure5", Kind: KindInference, Seed: 7,
				Clients: []Client{
					{Name: "plain", Label: "mobilenet-like/plain",
						Faults:    &FaultEnv{Kind: "rs-mask"},
						Inference: &InferenceSpec{Activation: "relu", Samples: 500}},
					{Name: "enc", Label: "mobilenet-like/encrypted",
						Faults:    &FaultEnv{Kind: "rs-mask"},
						Inference: &InferenceSpec{Activation: "relu", Samples: 500, Amplify: true}},
					{Name: "fhe", Label: "cryptonets-like/FHE",
						Faults:    &FaultEnv{Kind: "rs-mask"},
						Inference: &InferenceSpec{Activation: "square", Samples: 100, Amplify: true}},
				},
			}
		},
	},
	{
		Name:          "polysoak",
		Doc:           "live in-model soak: uniform draws over the five in-model injectors through the Polymorphic decode path, every trial faulted",
		DefaultTrials: 2000,
		Build: func() *Spec {
			return &Spec{
				Name: "polysoak", Kind: KindDecode, Seed: 1,
				Clients: []Client{
					{Name: "soak", Faults: &FaultEnv{Kind: "in-model"}},
				},
			}
		},
	},
	{
		Name:          "stormsoak",
		Doc:           "rowhammer storm: 90% of trials hammer one seed-derived aggressor row over a floor of uniform in-model background faults",
		DefaultTrials: 4000,
		Build: func() *Spec {
			return &Spec{
				Name: "stormsoak", Kind: KindDecode, Seed: 1,
				Lines: StormLines, RowLines: StormRowLines,
				Clients: []Client{
					{Name: "hammer", Fraction: StormShare,
						Access: &Access{Pattern: "hotrow"},
						Faults: &FaultEnv{Kind: "rowhammer"}},
					{Name: "background", Fraction: 1 - StormShare,
						Faults: &FaultEnv{Kind: "in-model"}},
				},
			}
		},
	},
	{
		Name:          "memctlsoak",
		Doc:           "self-healing storm soak: three-phase virtual-clock storm closed through the adaptive memory controller (quarantine, scrub cadence, model reorder, codec migration)",
		DefaultTrials: 8000,
		Build: func() *Spec {
			return &Spec{
				Name: "memctlsoak", Kind: KindDecode, Seed: 1,
				Lines: StormLines, RowLines: StormRowLines,
				TickNs: MemctlTickNs,
				Memctl: &MemctlSpec{Enabled: true, RegionLines: 64},
				Clients: []Client{
					{Name: "hammer", Fraction: StormShare,
						Access: &Access{Pattern: "hotrow"},
						Faults: &FaultEnv{Kind: "rowhammer"}},
					{Name: "background", Fraction: 1 - StormShare,
						Faults: &FaultEnv{Kind: "in-model", Rate: MemctlBackgroundP}},
				},
				Phases: []Phase{
					{Name: "background", Fraction: 0.25, Clients: []string{"background"}},
					{Name: "storm", Fraction: 0.5, Clients: []string{"hammer", "background"}},
					{Name: "recovery", Fraction: 0.25, Clients: []string{"background"}},
				},
			}
		},
	},
}

// Presets lists the built-in scenarios, sorted by name.
func Presets() []Preset {
	out := make([]Preset, len(presets))
	copy(out, presets)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupPreset resolves a preset by its name.
func LookupPreset(name string) (*Preset, bool) {
	for i := range presets {
		if presets[i].Name == name {
			return &presets[i], true
		}
	}
	return nil, false
}

// Spec builds the preset's spec with its default budget applied.
func (p *Preset) Spec() *Spec {
	s := p.Build()
	s.SetBudget(p.DefaultTrials)
	return s
}
