// Package trace is the simulator's flight recorder: one probe method,
// Tracer.Emit(Event), threaded through every protocol layer, with a
// no-op default that costs nothing when tracing is disabled.
//
// # Design constraints
//
// Probes are zero-overhead when disabled and determinism-neutral when
// enabled:
//
//   - Disabled is the default: every layer holds a nil Tracer and
//     guards each probe with a nil check, building its Event only
//     inside it, so the steady-state hot path pays one predictable
//     branch. The Nop implementation exists for call sites that want
//     an always-valid Tracer. Events travel by value and carry only
//     scalars and constant string tokens, so emitting one allocates
//     nothing, whether into Nop, a warm AirtimeLedger, or a Multi of a
//     Recorder and a ledger (guarded by TestNopAllocFree).
//   - Attaching a tracer must not change what the simulation computes.
//     Tracers observe; they never schedule events, consume RNG draws,
//     or mutate protocol state, so any golden baseline regenerates
//     byte-for-byte with a recorder attached (guarded by
//     TestTracerDeterminismNeutral).
//
// # Probes
//
// Each Kind is one probe, emitted by one layer:
//
//	Kind          layer            emitted when
//	tx_start      channel (Medium) a transmission enters the medium; the
//	                               MAC stages src, dst, class, A-MPDU
//	                               size, retries and HACK share
//	                               (Medium.StageTx)
//	tx_end        channel (Medium) a transmission leaves the medium, with
//	                               its collision outcome
//	collision     channel (Medium) two open transmissions overlap
//	rx_frame      mac (Station)    a data frame's A-MPDU is decoded
//	nav           mac (dcf)        an overheard frame extends the NAV
//	ba_window     mac (Station)    a Block ACK's bitmap is sent
//	mpdu_fate     mac (Station)    an MPDU is delivered, retried or expired
//	hack_state    hack (Driver)    the recovery machine changes state
//	rohc_packet   hack (Driver)    a TCP ACK is compressed (IR or delta)
//	rohc_result   hack (Driver)    a HACK payload is decompressed
//	tcp_rtx       tcp (Endpoint)   a segment is retransmitted
//	tcp_rto       tcp (Endpoint)   the retransmission timer fires
//	tcp_cwnd      tcp (Endpoint)   cwnd changes at a loss or recovery edge
//
// Adding a probe takes a Kind constant, its entry in knownKinds (the
// schema ValidateJSONL checks), any Event fields it needs (each with
// an omitempty JSON tag, so existing records keep their bytes), and one
// Emit at the probe site inside its nil check. Recorder, Writer, Multi
// and Nop pass every kind through unchanged.
//
// # Recorders and export
//
// Recorder is a bounded ring-buffer flight recorder (the newest N
// events survive); Writer streams every event as one JSON object per
// line (JSONL). ValidateJSONL checks an exported stream against the
// schema. Multi fans one event stream out to several tracers.
//
// # Airtime ledger
//
// AirtimeLedger reads tx_start and tx_end and partitions every
// nanosecond of simulated time into per-station buckets — data,
// wifi-ACK/BA, BAR, TCP-ACK payload, retries — plus idle, exactly
// (the buckets sum to the wall-clock simulated time with zero
// remainder; see TestAirtimeConservation). Overlapping transmissions
// (collisions) attribute each instant to the earliest-started active
// transmission, so no instant is counted twice. Those two kinds come
// from the medium alone, so the ledger belongs on channel.Medium's
// Tracer: attached to every layer it would pay to receive each NAV,
// MPDU and TCP event only to drop it.
package trace
