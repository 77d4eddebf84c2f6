package fleet

import (
	"fmt"
	"sort"

	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/wire"
)

// SummaryStateSchema versions the serialized Summary form. Bump it when
// the layout changes incompatibly; loaders reject mismatched versions.
const SummaryStateSchema = 1

// SummaryState is the serializable form of a Summary — the mergeable
// aggregator state campaign jobs persist so a separate process can fold
// per-shard summaries in canonical shard order. Sets are stored as sorted
// slices for deterministic bytes. The notify memoization fields are
// deliberately not carried: they only accelerate future Consume calls,
// and restored summaries are merged, never consumed into (restoring them
// would change nothing — the sets are already complete).
type SummaryState struct {
	Schema int `json:"schema"`
	Days   int `json:"days"`

	Flows     int64 `json:"flows"`
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	DayVolume        []float64 `json:"day_volume"`
	DropboxDayVolume []float64 `json:"dropbox_day_volume"`

	DropboxFlows  int64               `json:"dropbox_flows"`
	StoreBytes    int64               `json:"store_bytes"`
	RetrieveBytes int64               `json:"retrieve_bytes"`
	StoreFlows    int64               `json:"store_flows"`
	RetrieveFlows int64               `json:"retrieve_flows"`
	StoreSizes    telemetry.HistState `json:"store_sizes"`
	RetrieveSizes telemetry.HistState `json:"retrieve_sizes"`
	ControlFlows  int64               `json:"control_flows"`
	NotifyFlows   int64               `json:"notify_flows"`

	StorageServers []uint32 `json:"storage_servers,omitempty"`
	Devices        []uint64 `json:"devices,omitempty"`
	Namespaces     []uint32 `json:"namespaces,omitempty"`
	Households     []uint32 `json:"households,omitempty"`
}

// State captures the summary for serialization.
func (s *Summary) State() *SummaryState {
	st := &SummaryState{
		Schema:           SummaryStateSchema,
		Days:             s.Days,
		Flows:            s.Flows,
		BytesUp:          s.BytesUp,
		BytesDown:        s.BytesDown,
		DayVolume:        append([]float64(nil), s.DayVolume...),
		DropboxDayVolume: append([]float64(nil), s.DropboxDayVolume...),
		DropboxFlows:     s.DropboxFlows,
		StoreBytes:       s.StoreBytes,
		RetrieveBytes:    s.RetrieveBytes,
		StoreFlows:       s.StoreFlows,
		RetrieveFlows:    s.RetrieveFlows,
		StoreSizes:       s.StoreSizes.State(),
		RetrieveSizes:    s.RetrieveSizes.State(),
		ControlFlows:     s.ControlFlows,
		NotifyFlows:      s.NotifyFlows,
	}
	for k := range s.StorageServers {
		st.StorageServers = append(st.StorageServers, uint32(k))
	}
	for k := range s.Devices {
		st.Devices = append(st.Devices, k)
	}
	for k := range s.Namespaces {
		st.Namespaces = append(st.Namespaces, k)
	}
	for k := range s.Households {
		st.Households = append(st.Households, uint32(k))
	}
	sort.Slice(st.StorageServers, func(i, j int) bool { return st.StorageServers[i] < st.StorageServers[j] })
	sort.Slice(st.Devices, func(i, j int) bool { return st.Devices[i] < st.Devices[j] })
	sort.Slice(st.Namespaces, func(i, j int) bool { return st.Namespaces[i] < st.Namespaces[j] })
	sort.Slice(st.Households, func(i, j int) bool { return st.Households[i] < st.Households[j] })
	return st
}

// Summary rebuilds the live aggregator. The result is semantically
// identical to the captured one: merging restored per-shard summaries in
// shard order reproduces a single-process run's aggregate bit-for-bit.
func (st *SummaryState) Summary() (*Summary, error) {
	if st.Schema != SummaryStateSchema {
		return nil, fmt.Errorf("fleet: summary state schema %d, this build reads %d", st.Schema, SummaryStateSchema)
	}
	if st.Days < 0 || len(st.DayVolume) != st.Days || len(st.DropboxDayVolume) != st.Days {
		return nil, fmt.Errorf("fleet: summary state day vectors (%d, %d) disagree with days=%d",
			len(st.DayVolume), len(st.DropboxDayVolume), st.Days)
	}
	s := NewSummary(st.Days)
	s.Flows = st.Flows
	s.BytesUp = st.BytesUp
	s.BytesDown = st.BytesDown
	copy(s.DayVolume, st.DayVolume)
	copy(s.DropboxDayVolume, st.DropboxDayVolume)
	s.DropboxFlows = st.DropboxFlows
	s.StoreBytes = st.StoreBytes
	s.RetrieveBytes = st.RetrieveBytes
	s.StoreFlows = st.StoreFlows
	s.RetrieveFlows = st.RetrieveFlows
	if err := s.StoreSizes.Restore(st.StoreSizes); err != nil {
		return nil, fmt.Errorf("store sizes: %w", err)
	}
	if err := s.RetrieveSizes.Restore(st.RetrieveSizes); err != nil {
		return nil, fmt.Errorf("retrieve sizes: %w", err)
	}
	s.ControlFlows = st.ControlFlows
	s.NotifyFlows = st.NotifyFlows
	for _, k := range st.StorageServers {
		s.StorageServers[wire.IP(k)] = struct{}{}
	}
	for _, k := range st.Devices {
		s.Devices[k] = struct{}{}
	}
	for _, k := range st.Namespaces {
		s.Namespaces[k] = struct{}{}
	}
	for _, k := range st.Households {
		s.Households[wire.IP(k)] = struct{}{}
	}
	return s, nil
}
