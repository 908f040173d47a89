// A small line-oriented text format for transaction systems, so workloads
// can be authored, versioned and fed to the analyzer CLI without writing
// C++. The full grammar lives in docs/FORMAT.md.
//
//   # comment / blank lines ignored
//   sites: <site> <site> ...                   (declare sites up front;
//                                                needed for copy-only
//                                                sites with no primaries)
//   site <site-name>: <entity> <entity> ...    (entities whose catalog
//                                                site this is; creates
//                                                the site if new)
//   copies <entity>: <site> <site> ...         (copy placement; the first
//                                                site is the primary)
//   latency: <base> <jitter> <local>           (message latency model)
//   txn <txn-name>: <step> <step> ...          (totally ordered)
//   txn <txn-name>: <step> ... ; <step> ...    ( ';' separates per-site
//                                                unordered segments: steps
//                                                within a segment are
//                                                chained, segments are
//                                                mutually unordered )
//   txn <txn-name>: <step> ... <i>-><j> ...    ( '<i>-><j>' adds an explicit
//                                                precedence arc between the
//                                                i-th and j-th step tokens
//                                                of the line, 1-based in
//                                                order of appearance across
//                                                segments; forward
//                                                references are fine )
//
// A step is 'L<entity>' or 'U<entity>', e.g. "Lx" "Uaccount_7". Transaction
// names must be unique within a file.
#ifndef WYDB_IO_TEXT_FORMAT_H_
#define WYDB_IO_TEXT_FORMAT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "gen/system_gen.h"
// Deliberate io -> runtime edge: a workload file configures the traffic
// engine, and LatencyModel is its network knob. The runtime never
// includes io, so the dependency stays acyclic.
#include "runtime/sim/network.h"

namespace wydb {

/// A parsed workload file: the system (plus the copy placement inside
/// OwnedSystem, when the file has `copies` stanzas) and the optional
/// latency model.
struct WorkloadSpec {
  OwnedSystem owned;
  /// From the `latency` stanza; defaults when has_latency is false.
  LatencyModel latency;
  bool has_latency = false;
};

/// Parses the full workload format, including the replication stanzas.
/// Errors carry 1-based line numbers.
Result<WorkloadSpec> ParseWorkload(const std::string& text);

/// Parses the text format into a database plus transaction system (the
/// placement, if any, rides along in OwnedSystem::placement).
Result<OwnedSystem> ParseSystem(const std::string& text);

/// Renders a system back into the text format. parse∘serialize is the
/// identity on the step partial order: each transaction is emitted as
/// ';'-separated chains of its Hasse diagram plus explicit '<i>-><j>' arc
/// tokens for the cross-chain Hasse arcs. Totally ordered transactions
/// serialize as a single plain chain. The output is a fixpoint of
/// serialize∘parse: reserializing a parse of it reproduces it byte for
/// byte.
std::string SerializeSystem(const TransactionSystem& sys);

/// Appends the step list of one `txn` line — everything after the colon,
/// with a leading space — for `txn`, whose Hasse diagram is `hasse`. The
/// chain decomposition breaks ties by `by_priority` (every node id,
/// highest priority first), and a step on entity e is labelled with
/// `entity_names[e]`. SerializeWorkload passes node-id priority and the
/// database names; the canonical key passes a canonical step order and
/// canonical names, which is why both share this one writer.
void AppendTransactionBody(const Transaction& txn, const Digraph& hasse,
                           const std::vector<NodeId>& by_priority,
                           const std::vector<std::string>& entity_names,
                           std::string* out);

/// As SerializeSystem, but also emits `sites`, `copies` and `latency`
/// stanzas. Either pointer may be null; a null placement (or one with no
/// replicated entity) emits no `copies` lines.
std::string SerializeWorkload(const TransactionSystem& sys,
                              const CopyPlacement* placement,
                              const LatencyModel* latency);

}  // namespace wydb

#endif  // WYDB_IO_TEXT_FORMAT_H_
