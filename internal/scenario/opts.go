package scenario

import (
	"polyecc/internal/campaign"
	"polyecc/internal/latency"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/telemetry"
)

// Opts are the operator knobs shared by every scenario run — the
// cmd/faultinject -workers, -checkpoint, -checkpoint-every, and -resume
// flags. This is the one place workers/timeout/checkpoint/journal
// wiring exists; every run (preset, spec file or replay) flows through
// config() below. The zero value runs in-memory with GOMAXPROCS
// workers.
type Opts struct {
	// Workers is the concurrent trial goroutine count (default
	// GOMAXPROCS). Sequential scenarios (memctl/scrub/standing faults)
	// ignore it: globally ordered virtual time needs one loop.
	Workers int
	// CheckpointPath periodically receives an atomic JSON snapshot of
	// campaign progress when non-empty.
	CheckpointPath string
	// CheckpointEvery is the trial count between checkpoints (default 1000).
	CheckpointEvery int
	// Resume restarts from CheckpointPath, skipping completed trials.
	Resume bool
	// Journal, when non-nil, is the flight recorder: worker shard spans,
	// notable trial outcomes (JournalOutcomes), and — for decode
	// scenarios — full decode-anomaly records with the candidate trail.
	Journal *telemetry.Journal
	// JournalOutcomes overrides the per-kind default filter for which
	// trial outcome labels are journaled (substring match).
	JournalOutcomes []string
	// Manifest, when non-nil, stamps every checkpoint with the run's
	// provenance.
	Manifest *telemetry.Manifest
	// Metrics, when non-nil, rides the decode path of decode/replay
	// scenarios (the -metrics-addr decode.* collectors).
	Metrics *telemetry.DecodeMetrics
	// Latency, when non-nil, collects decode/encode timings for the run:
	// per outcome class, per client, and per phase, through per-worker
	// probes (decode/replay kinds). Enabling it consumes no seeded
	// randomness, so outcome counts stay bit-identical to an untimed
	// run. A spec latency stanza without a collector here gets a private
	// one, visible only through the result digest.
	Latency *latency.Collector
	// Code, when non-nil, is a pre-built line code overriding Spec.Code
	// resolution — the shape the shared -code flag resolver hands a
	// command. Decode scenarios require it to be a linecode.Poly.
	Code linecode.Code
	// Controller is the adaptive memory controller a Memctl-enabled
	// scenario closes the loop through. Required when the spec enables
	// memctl; it must share Journal.
	Controller *memctl.Controller
	// ReplayEvents, when non-empty, is a preloaded schedule for a
	// replay-kind scenario, used instead of reading Spec.Replay.Path.
	ReplayEvents []telemetry.Event
}

// config assembles the campaign.Config for one scenario, wiring the
// shared faultinject telemetry in. defaultOutcomes is the kind's
// journal-worthy label set, used unless the caller overrides it.
func (o Opts) config(name string, trials int, seed int64, defaultOutcomes ...string) campaign.Config {
	outcomes := o.JournalOutcomes
	if outcomes == nil {
		outcomes = defaultOutcomes
	}
	return campaign.Config{
		Name:            name,
		Trials:          trials,
		Seed:            seed,
		Workers:         o.Workers,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		Resume:          o.Resume,
		Metrics:         &Campaign().Runner,
		Journal:         o.Journal,
		JournalOutcomes: outcomes,
		Manifest:        o.Manifest,
	}
}
