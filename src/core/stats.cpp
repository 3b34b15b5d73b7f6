#include "core/stats.hpp"

#include "common/strings.hpp"

namespace dart::core {

RuntimeHealth& RuntimeHealth::operator+=(const RuntimeHealth& other) {
  for (const auto& f : kHealthFields) this->*f.member += other.*f.member;
  return *this;
}

std::string RuntimeHealth::summary() const {  // hotpath-ok: reporting only
  std::string out;  // hotpath-ok: end-of-run formatting
  out += "shed=" + format_count(shed_packets) + "pkt/" +
         format_count(shed_batches) + "batch";
  out += " backpressure=" + format_count(backpressure_events);
  out += " killed=" + format_count(workers_killed);
  out += " detached=" + format_count(forced_detaches);
  out += " abandoned=" + format_count(abandoned_packets);
  if (recovered != 0 || lost_to_crash != 0) {
    out += " recovered=" + format_count(recovered);
    out += " replayed=" + format_count(replayed_after_restore);
    out += " lost=" + format_count(lost_to_crash);
  }
  return out;
}

DartStats& DartStats::operator+=(const DartStats& other) {
  for (const auto& f : kStatFields) this->*f.member += other.*f.member;
  runtime += other.runtime;
  return *this;
}

void DartStats::snapshot(SealedWriter& writer) const {
  writer.u32(kStatCounters);
  for (const auto& f : kStatFields) writer.u64(this->*f.member);
  for (const auto& f : kHealthFields) writer.u64(runtime.*f.member);
}

SealedError DartStats::restore(SealedReader& reader) {
  const std::uint32_t count = reader.u32();
  if (!reader.error() && count != kStatCounters) {
    reader.fail_field();
  }
  DartStats staged;
  for (const auto& f : kStatFields) staged.*f.member = reader.u64();
  for (const auto& f : kHealthFields) staged.runtime.*f.member = reader.u64();
  if (reader.error()) return reader.error();
  *this = staged;
  return SealedError::ok();
}

std::string DartStats::summary() const {  // hotpath-ok: reporting only
  std::string out;  // hotpath-ok: end-of-run formatting
  out += "packets=" + format_count(packets_processed);
  out += " seq=" + format_count(seq_candidates);
  out += " tracked=" + format_count(seq_tracked);
  out += " acks=" + format_count(ack_candidates);
  out += " samples=" + format_count(samples);
  out += " recirc/pkt=" + format_double(recirculations_per_packet(), 4);
  out += " evictions=" + format_count(pt_evictions);
  out += " drops(budget/stale/cycle/useless)=" + format_count(drops_budget) +
         "/" + format_count(drops_stale) + "/" + format_count(drops_cycle) +
         "/" + format_count(drops_useless);
  if (runtime.degraded()) out += " [degraded: " + runtime.summary() + "]";
  return out;
}

}  // namespace dart::core
