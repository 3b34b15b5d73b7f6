#include "analytics/sample_log.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

namespace dart::analytics {
namespace {

const char* leg_name(core::LegMode leg) {
  switch (leg) {
    case core::LegMode::kExternal:
      return "external";
    case core::LegMode::kInternal:
      return "internal";
    case core::LegMode::kBoth:
      return "both";
  }
  return "external";
}

std::optional<core::LegMode> leg_from(std::string_view name) {
  if (name == "external") return core::LegMode::kExternal;
  if (name == "internal") return core::LegMode::kInternal;
  if (name == "both") return core::LegMode::kBoth;
  return std::nullopt;
}

template <typename T>
bool parse_number(std::string_view text, T& value) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

std::optional<core::RttSample> parse_row(const std::string& line) {
  std::vector<std::string_view> fields;
  std::string_view rest = line;
  while (true) {
    const auto comma = rest.find(',');
    fields.push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (fields.size() != 9) return std::nullopt;

  core::RttSample sample;
  const auto src = Ipv4Addr::parse(fields[0]);
  const auto dst = Ipv4Addr::parse(fields[2]);
  std::uint64_t rtt = 0;
  const auto leg = leg_from(fields[8]);
  if (!src || !dst || !leg ||
      !parse_number(fields[1], sample.tuple.src_port) ||
      !parse_number(fields[3], sample.tuple.dst_port) ||
      !parse_number(fields[4], sample.eack) ||
      !parse_number(fields[5], sample.seq_ts) ||
      !parse_number(fields[6], sample.ack_ts) ||
      !parse_number(fields[7], rtt)) {
    return std::nullopt;
  }
  sample.tuple.src_ip = *src;
  sample.tuple.dst_ip = *dst;
  sample.leg = *leg;
  if (sample.rtt() != rtt) return std::nullopt;  // consistency check
  return sample;
}

}  // namespace

void SampleLog::absorb(SampleLog&& other) {
  if (samples_.empty()) {
    samples_ = std::move(other.samples_);
  } else {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    other.samples_.clear();
  }
}

bool SampleLog::write_csv(std::ostream& out) const {
  return write_samples_csv(samples_, out);
}

bool SampleLog::write_csv_file(const std::string& path) const {
  return write_samples_csv_file(samples_, path);
}

bool write_samples_csv(const std::vector<core::RttSample>& samples,
                       std::ostream& out) {
  out << "src_ip,src_port,dst_ip,dst_port,eack,seq_ts_ns,ack_ts_ns,rtt_ns,"
         "leg\n";
  for (const core::RttSample& s : samples) {
    out << s.tuple.src_ip.to_string() << ',' << s.tuple.src_port << ','
        << s.tuple.dst_ip.to_string() << ',' << s.tuple.dst_port << ','
        << s.eack << ',' << s.seq_ts << ',' << s.ack_ts << ',' << s.rtt()
        << ',' << leg_name(s.leg) << '\n';
  }
  return static_cast<bool>(out);
}

bool write_samples_csv_file(const std::vector<core::RttSample>& samples,
                            const std::string& path) {
  std::ofstream out(path);
  return out && write_samples_csv(samples, out) && out.flush();
}

std::optional<std::vector<core::RttSample>> read_samples_csv(
    std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line.rfind("src_ip,", 0) != 0) {
    return std::nullopt;
  }
  std::vector<core::RttSample> samples;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto sample = parse_row(line);
    if (!sample) return std::nullopt;
    samples.push_back(*sample);
  }
  return samples;
}

std::optional<std::vector<core::RttSample>> read_samples_csv_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_samples_csv(in);
}

}  // namespace dart::analytics
