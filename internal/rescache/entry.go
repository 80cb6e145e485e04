package rescache

import (
	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/profile"
	"interplab/internal/trace"
)

// Entry is the cached value of one measurement: every Result field that is
// a pure function of the measurement inputs.  internal/core converts
// between Entry and core.Result; keeping the conversion there keeps this
// package free of a core dependency in both directions.
type Entry struct {
	Key Key `json:"key"`

	SizeBytes     int                   `json:"size_bytes,omitempty"`
	Stdout        string                `json:"stdout,omitempty"`
	FrameChecksum uint32                `json:"frame_checksum,omitempty"`
	Counter       trace.Counter         `json:"counter"`
	Stats         atom.Stats            `json:"stats"`
	Pipe          *alphasim.Stats       `json:"pipe,omitempty"`
	Sweep         []alphasim.SweepPoint `json:"sweep,omitempty"`
	Profile       *profile.Profile      `json:"profile,omitempty"`
	Batch         *trace.BatchStats     `json:"batch,omitempty"`
}
