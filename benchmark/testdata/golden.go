package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// goldenJSON holds the expected outputs. Regenerate it with
//
//	go test . -run TestGolden -update
//
// from this directory after a change that is meant to alter them.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the decoded golden.json.
type golden struct {
	// PaperText is the SHA-256 of the paper-cold Table II and figure
	// text (matmult-int, US grid, 24 months).
	PaperText string `json:"paper_text_sha256"`
	// PaperMaxRelErr is the maximum relative error against the paper's
	// Table II anchors.
	PaperMaxRelErr float64 `json:"paper_max_rel_err"`
	// Matmult is the matmult-int simulation's counts.
	Matmult simCounts `json:"matmult_int"`
	// Bodies maps each warm serving key to the SHA-256 of its response
	// body.
	Bodies map[string]string `json:"serve_bodies_sha256"`
	// Sweep maps a seed to the SHA-256 of the sweep-mc NDJSON it yields.
	Sweep map[string]string `json:"sweep_ndjson_sha256"`
}

// simCounts are the simulated statistics of one embench run; they must
// repeat exactly.
type simCounts struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	ProgramReads uint64 `json:"program_reads"`
	DataReads    uint64 `json:"data_reads"`
	DataWrites   uint64 `json:"data_writes"`
}

func (c simCounts) String() string {
	return fmt.Sprintf("cycles=%d instructions=%d program_reads=%d data_reads=%d data_writes=%d",
		c.Cycles, c.Instructions, c.ProgramReads, c.DataReads, c.DataWrites)
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
