// Package ppatc reproduces "Quantifying Trade-Offs in Power, Performance,
// Area, and Total Carbon Footprint of Future Three-Dimensional Integrated
// Computing Systems" (DATE 2025): embodied-carbon models for monolithic-3D
// processes with beyond-Si devices, a complete PPAtC evaluation of an ARM
// Cortex-M0 + eDRAM embedded system in an all-Si and an M3D IGZO/CNFET/Si
// 7 nm process, and tCDP carbon-efficiency analysis under uncertainty.
//
// This root package is a thin facade over the implementation packages:
//
//	internal/process   fabrication flows and per-step energy (Eq. 4)
//	internal/carbon    embodied/operational carbon (Eqs. 1-3, 5-8)
//	internal/wafer     die-per-wafer estimation
//	internal/yield     yield models
//	internal/device    virtual-source FET compact models (Si/CNFET/IGZO)
//	internal/spice     MNA circuit simulator
//	internal/edram     3T gain-cell eDRAM macro model
//	internal/stdcell   ASAP7-style cell library corners
//	internal/synth     M0 synthesis and timing closure
//	internal/thumb     ARMv6-M assembler + Cortex-M0 simulator
//	internal/embench   Embench-style workloads with golden models
//	internal/floorplan chip composition
//	internal/tcdp      tC-vs-lifetime, tCDP, isolines (Figs. 5-6)
//	internal/core      the PPAtC engine and experiment drivers
//
// The quickest entry points:
//
//	si, m3d, table, err := ppatc.Table2(ppatc.MatmultInt(), ppatc.GridUS)
//	fig5, err := ppatc.Fig5(si, m3d, 24)
package ppatc

import (
	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
)

// Re-exported core types.
type (
	// SystemDesign is a technology realization of the embedded system.
	SystemDesign = core.SystemDesign
	// PPAtC is a full evaluation result (Table II row set).
	PPAtC = core.PPAtC
	// Workload is an Embench-style benchmark.
	Workload = embench.Workload
	// Grid is an electricity supply with its carbon intensity.
	Grid = carbon.Grid
)

// Canonical grids (Fig. 2c).
var (
	GridUS     = carbon.GridUS
	GridCoal   = carbon.GridCoal
	GridSolar  = carbon.GridSolar
	GridTaiwan = carbon.GridTaiwan
)

// AllSiSystem returns the baseline all-Si design (Fig. 1c).
func AllSiSystem() SystemDesign { return core.AllSiSystem() }

// M3DSystem returns the M3D IGZO/CNFET/Si design (Fig. 1b).
func M3DSystem() SystemDesign { return core.M3DSystem() }

// MatmultInt returns the paper's headline workload.
func MatmultInt() Workload { return embench.MatmultInt() }

// Workloads returns the bundled workload suite.
func Workloads() []Workload { return embench.Workloads() }

// Evaluate runs the full design flow for a system and workload.
func Evaluate(sys SystemDesign, w Workload, grid Grid) (*PPAtC, error) {
	return core.Evaluate(sys, w, grid)
}

// Experiment drivers — one per table/figure of the paper.
var (
	Fig2c  = core.Fig2c
	Fig2d  = core.Fig2d
	Table1 = core.Table1
	Table2 = core.Table2
	Fig4   = core.Fig4
	Fig5   = core.Fig5
	Fig6a  = core.Fig6a
	Fig6b  = core.Fig6b
)
