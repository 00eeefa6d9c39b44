// Package mac implements the 802.11 MAC layer: DCF/EDCA contention
// (IFS + slotted exponential backoff), immediate link-layer ACKs,
// A-MPDU aggregation with Block ACK agreements and Block ACK Requests,
// per-MPDU retransmission with retry limits, duplicate detection,
// receive-side reordering, NAV-based virtual carrier sense, EIFS, and
// rate adaptation.
//
// # Stations
//
// A Station is one 802.11 station — the MAC is symmetric, so clients
// and the access point run the same code. Stations attach to a
// channel.Medium, accept MSDUs through Enqueue, and deliver received
// MSDUs through the Deliver callback. Contention lives in the dcf
// engine; framing and wire sizes in frames.go; the Block ACK
// recipient scoreboard in ba.go.
//
// A station keeps one record per peer — its transmit queue to that
// peer, the last unaggregated sequence number from it, and the receive
// side of its Block ACK agreement — found by indexing with the peer's
// address, so the per-frame path probes no map. The transmit round
// robin visits queues in the order of their first enqueue.
//
// # Block ACK receive side
//
// The recipient's reorder buffer is a ring of 64 MSDU slots indexed by
// sequence number mod 64, plus a 64-bit word whose bit s is set while
// slot s holds an MSDU. Every buffered sequence number lies inside the
// 64-wide window that starts at winStart, and 4096 is a multiple of 64,
// so a slot names one sequence number of the window even across the
// 4095→0 wrap. The compressed Block ACK bitmap is that word rotated so
// winStart's slot lands on bit 0; the hole-recovery flush advances
// past the highest set bit of that bitmap; and the flush timer stays
// armed while the word is non-zero.
//
// # Virtual carrier sense
//
// A data frame's or Block ACK Request's Duration field reserves the
// medium through its response, sized for the largest HACK payload
// (Config.AckPayloadAllowance), and every station that overhears the
// frame defers until that NAV lapses. The lapse is one scheduler event
// per overheard frame, not one timer per station: the first station
// whose NAV the frame extends posts it, drawing the record from the
// sender's freelist; later overhearers join its member list; a member
// whose NAV a later frame extends moves to that frame's lapse; at the
// lapse each remaining member re-evaluates its idle state in join
// (attach) order. A dense network thus pays one scheduler event per
// frame for NAV, not one per station, in the same order of execution
// (navLapse gives the argument).
//
// A station that has stopped listening in a single collision domain
// (see Idle stations) joins no lapse. The medium's record of idle
// stations keeps their NAVs instead: a frame whose NAV end exceeds some idle station's NAV posts
// its lapse exactly as setNAV would for the first overhearer it
// extends, so no lapse event is added or dropped, and the lapse also
// advances the idle clock of the idle stations whose NAV it ends. A
// station that wakes while the lapse of its NAV is pending rejoins the
// lapse's members at its attach-order place, where the frame's
// delivery loop put it.
//
// # Idle stations
//
// A station with nothing to do — no transmission requested, no DCF
// timer pending, no exchange outstanding, no response pending and no
// tracer — stops listening. In a single collision domain it hears
// nothing, so a frame costs the medium and the MAC nothing for it: no
// carrier edges, no delivery, no NAV update. It listens again when a frame
// addressed to it is decoded, before the frame is delivered, or when
// its queue gets a packet. It then holds exactly the state the skipped
// callbacks and NAV lapses would have left, because everything it
// missed is medium-wide: an idle station is never a frame's source, and
// every other frame reaches it with the outcome every overhearer gets.
// Its carrier state and busy-edge time come from the medium's carrier
// history; its EIFS flag is the outcome of the last frame that finished
// since it left; its NAV is the larger of its own and the NAV ends of
// the data frames and Block ACK Requests decoded since; and its idle
// clock moved at each idle edge at or after its NAV end and at its
// NAV's lapse if the medium was idle then. The overheard record keeps
// those NAVs and idle clocks in a few roots shared by the stations
// whose NAV and pending lapse agree.
//
// Under the general (spatial) engine outcomes differ per receiver, so
// an idle station keeps its deliveries and stops taking only the
// carrier edges. The medium records every radio's carrier history, and
// the station catches up on the edges it missed whenever its carrier
// state is read: before a frame extends its NAV, before the lapse of
// its NAV re-evaluates it, and when it wakes, for a packet or for a
// decoded frame addressed to it. The catch-up restores its carrier
// state and the time of the last busy edge, and moves its idle clock
// to the last idle edge if that came at or after its NAV's end, as the
// skipped callbacks would have: its NAV has not changed since the last
// catch-up, and the callbacks of a station with no request and an idle
// DCF timer freeze, arm and draw nothing.
//
// A traced station never stops listening, since its trace pins every
// NAV update, so running every station traced is the reference both
// idle paths are tested against.
//
// # Frame ownership
//
// A warm station allocates no frame per transmission. It owns one
// exchange record, allocated with it, holding its one data frame and
// its one Block ACK Request: only one exchange is ever outstanding,
// and a frame lives exactly as long as its exchange. Link-layer ACKs
// and Block ACKs come from a freelist linked through the frames; a
// response's frame goes back when its transmission ends, after the
// medium's deliveries, and keeps its payload buffer, into which the
// driver appends the next HACK payload (Hooks.BuildAckPayload). MPDU
// wrappers and MSDUs come from per-station freelists. Receivers read a
// frame only inside EndRx, so none of this reuse can alias.
//
// # Rate adaptation
//
// The RateAdapter interface decouples rate selection from the
// transmit path: the station asks RateFor(dst) once per data PPDU and
// reports per-MPDU outcomes through OnTxResult. Two implementations
// and two oracle rules cover the repository's needs:
//
//   - FixedRate pins one rate — the paper's fixed-rate-per-experiment
//     methodology, and the default when Config.RateAdapter is nil.
//   - IdealRate is the threshold oracle: from the channel's SNR it
//     picks the highest rate whose frame error rate is negligible. It
//     turns the Figure 11 "sweep every fixed rate and take the
//     envelope" grid into one simulation per SNR point.
//   - ArgmaxRate is the argmax oracle: from the same SNR tables it
//     picks the rate with the highest expected goodput over a whole
//     A-MPDU, which operates in the ~1 % per-MPDU loss regime that
//     needs HACK's loss-resilient recovery.
//   - Minstrel adapts from observed outcomes alone, after the Linux
//     algorithm: per-rate EWMA success probabilities, rates ranked by
//     expected throughput, probe frames on a deterministic random
//     schedule, and a most-reliable fallback after failure bursts.
//
// The channel's SNR is one value per network, so an oracle's answer is
// too: the network assembly (internal/node) calls IdealRate or
// ArgmaxRate once and gives every station a FixedRate with the result.
// ParseAdapterSpec maps the scenario-axis vocabulary ("fixed",
// "fixed:<rate>", "ideal", "argmax", "minstrel") onto these.
//
// # Determinism contract
//
// Everything in this package is single-goroutine, driven by the
// sim.Scheduler, and draws randomness only from streams forked off
// the scheduler (the station's backoff RNG, a Minstrel's probe RNG).
// Two networks built with the same seed therefore execute
// bit-identically, which is what lets internal/campaign run grid
// points in parallel and still produce row-for-row identical results.
// A Minstrel's state is per station and must never be shared across
// stations or networks.
//
// # HACK extension points
//
// Two extension points carry the paper's HACK protocol without the MAC
// knowing anything about TCP: frames expose the MORE DATA and SYNC
// header bits, and the Hooks interface lets a driver append opaque
// bytes to outgoing link-layer acknowledgments and receive them on the
// other side (the NIC treats compressed TCP ACKs "as opaque bits that
// it needn't understand", §2.2).
package mac
