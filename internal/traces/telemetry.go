package traces

import "insidedropbox/internal/telemetry"

// Serialization telemetry per codec. The CSV writer counts locally and
// publishes on Flush; the binary writer publishes once per encoded block —
// neither path adds atomics per record.
var (
	mCSVRecords = telemetry.NewCounter("traces.csv_records")
	mCSVBytes   = telemetry.NewCounter("traces.csv_bytes")
	mBinRecords = telemetry.NewCounter("traces.binary_records")
	mBinBytes   = telemetry.NewCounter("traces.binary_bytes")
	mBinBlocks  = telemetry.NewCounter("traces.binary_blocks")

	// Parallel writer: binary blocks finished on the ring's goroutines,
	// and the times a producer stalled waiting for a free ring slot
	// (encoding falling behind generation — the backpressure signal).
	mParBlocks = telemetry.NewCounter("traces.parallel_blocks")
	mParStalls = telemetry.NewCounter("traces.parallel_block_waits")

	// Block readers: frames decoded with read-ahead on, and those of them
	// a seek dropped before they were handed out.
	mReadAheadFrames    = telemetry.NewCounter("traces.read_ahead_frames")
	mReadAheadDiscarded = telemetry.NewCounter("traces.read_ahead_discarded")

	// Flate archival tier: compressed frames written, records inside
	// them, pre- and post-compression byte counts (their ratio is the
	// achieved compression), and index-driven seeks served.
	mFlateFrames   = telemetry.NewCounter("traces.flate_frames")
	mFlateRecords  = telemetry.NewCounter("traces.flate_records")
	mFlateRawBytes = telemetry.NewCounter("traces.flate_raw_bytes")
	mFlateBytes    = telemetry.NewCounter("traces.flate_bytes")
	mFlateSeeks    = telemetry.NewCounter("traces.flate_seeks")
)
