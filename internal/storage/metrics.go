package storage

import "nexus/internal/obs"

// Storage-layer metrics, registered in the process-wide obs registry.
// Each update is one or two atomic adds, cheap enough to stay on in
// the write path the durability benchmarks measure.
var (
	metWalFsyncSeconds = obs.Default.Histogram("nexus_wal_fsync_seconds",
		"Latency of WAL fsync calls (one flush commits a whole group-commit batch).",
		obs.LatencyBuckets())
	metWalAppendSeconds = obs.Default.Histogram("nexus_wal_append_seconds",
		"End-to-end latency of WAL appends: file write plus the wait for the batch's fsync.",
		obs.LatencyBuckets())
	metWalBatchRecords = obs.Default.Histogram("nexus_wal_commit_batch_records",
		"Records made durable per fsync — the group-commit batch size.",
		obs.SizeBuckets())
	metWalBytes = obs.Default.Counter("nexus_wal_append_bytes_total",
		"Bytes written to the write-ahead log.")
	metWalRecords = obs.Default.Counter("nexus_wal_records_total",
		"Records written to the write-ahead log.")

	metFlushes = obs.Default.Counter("nexus_storage_flushes_total",
		"WAL-to-segment flushes (manifest generation swaps).")
	metFlushSeconds = obs.Default.Histogram("nexus_storage_flush_seconds",
		"Duration of flushes: segment writes plus manifest commit.",
		obs.LatencyBuckets())

	metCompactions = obs.Default.Counter("nexus_storage_compactions_total",
		"Compaction passes that merged at least one dataset.")
	metCompactSeconds = obs.Default.Histogram("nexus_storage_compact_seconds",
		"Duration of compaction passes that merged something.",
		obs.LatencyBuckets())
	metCompactMerged = obs.Default.Counter("nexus_storage_compact_segments_merged_total",
		"Small segments replaced by compaction.")
	metCompactCreated = obs.Default.Counter("nexus_storage_compact_segments_created_total",
		"Merged segments written by compaction.")
	metCompactBytesIn = obs.Default.Counter("nexus_storage_compact_bytes_in_total",
		"File bytes of segments consumed by compaction.")
	metCompactBytesOut = obs.Default.Counter("nexus_storage_compact_bytes_out_total",
		"File bytes of segments produced by compaction.")

	metSegCache = obs.Default.CounterVec("nexus_storage_segment_cache_total",
		"Segment cache lookups by result; the cache holds parsed, not materialized, segments.", "result")
	metSegCacheHit  = metSegCache.With("hit")
	metSegCacheMiss = metSegCache.With("miss")

	metBytesRead = obs.Default.CounterVec("nexus_storage_bytes_read_total",
		"Segment-file bytes read from disk, by read mode (every column vs a subset of columns).",
		"mode")
	metBytesReadFull      = metBytesRead.With("full")
	metBytesReadProjected = metBytesRead.With("projected")

	metEncodedScans = obs.Default.Counter("nexus_storage_encoded_scans_total",
		"Cold scans answered by the encoded path: predicates evaluated over "+
			"runs and dictionary codes, survivors materialized selectively.")
	metEncodedAggs = obs.Default.Counter("nexus_storage_encoded_aggs_total",
		"Grouped aggregations folded directly over encoded pages.")

	metSegScanned = obs.Default.Counter("nexus_storage_segments_scanned_total",
		"Segments read by scans, aggregates and dataset loads.")
	metSegPruned = obs.Default.Counter("nexus_storage_segments_pruned_total",
		"Segments skipped by zone-map pruning.")
)
