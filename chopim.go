// Package chopim is a from-scratch reproduction of "Near Data
// Acceleration with Concurrent Host Access" (Cho, Kwon, Lym, Erez — ISCA
// 2020): a cycle-level simulation of DDR4 main memory shared, at
// fine temporal granularity, between a multi-core host and near-data
// accelerators (NDAs) integrated on the memory modules.
//
// The package re-exports the system builder, configuration presets, the
// NDA runtime API (vectors, matrices, Table I operations, asynchronous
// macro launches), and the experiment harness that regenerates every
// figure of the paper's evaluation. Implementation subsystems live under
// internal/; see DESIGN.md for the full inventory.
//
// Each DRAM cycle ticks every channel's controller and then its rank
// NDAs, applies the cycle's completions from one mailbox in the order
// they were produced, and then runs the host cores (DESIGN.md §2.5).
// Each simulation runs on one goroutine; the experiment harness
// parallelizes across independent figure points.
//
// Quickstart:
//
//	sys, err := chopim.NewSystem(chopim.DefaultConfig(1)) // host mix1
//	x, _ := sys.RT.NewVector(1<<20, chopim.Shared)
//	y, _ := sys.RT.NewVector(1<<20, chopim.Shared)
//	h, _ := sys.RT.Copy(y, x) // NDA copy concurrent with host traffic
//	_ = sys.Await(10_000_000, h)
//	fmt.Println(sys.HostIPC(), sys.NDABlocks())
package chopim

import (
	"chopim/internal/dram"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/sim"
)

// System is the composed simulation: host cores, caches, memory
// controllers, DDR4 devices, NDAs, and the Chopim runtime.
type System = sim.System

// Config assembles one system instance.
type Config = sim.Config

// Geometry is the memory organization's one varying value, the ranks
// per channel; the rest is the Table II organization (dram constants).
type Geometry = dram.Geometry

// Handle tracks completion of launched NDA operations.
type Handle = ndart.Handle

// Vector is a float32 vector shared between host and NDAs.
type Vector = ndart.Vector

// Matrix is a row-major float32 matrix shared between host and NDAs.
type Matrix = ndart.Matrix

// Runtime is the Chopim runtime and NDA API.
type Runtime = ndart.Runtime

// Placements for NDA tensors.
const (
	Shared  = ndart.Shared
	Private = ndart.Private
)

// NDA write-throttling policies (Section III-B).
const (
	IssueIfIdle = nda.IssueIfIdle
	Stochastic  = nda.Stochastic
	NextRank    = nda.NextRank
)

// NewSystem builds a system from the configuration.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// DefaultConfig returns the paper's baseline (Table II) running host
// application mix (0-8), with bank partitioning and next-rank
// prediction enabled. Pass mix = -1 for an NDA-only system.
func DefaultConfig(mix int) Config { return sim.Default(mix) }

// DefaultGeometry returns the 2-channel x 2-rank DDR4 baseline.
func DefaultGeometry() Geometry { return dram.DefaultGeometry() }
