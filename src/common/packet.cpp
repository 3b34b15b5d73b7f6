#include "common/packet.hpp"

namespace dart {

// Built by appending only: GCC 12 at -O3 raises a -Werror=restrict false
// positive on `"literal" + std::string` concatenation.
std::string PacketRecord::to_string() const {  // hotpath-ok: debug only
  std::string out;  // hotpath-ok: debug formatting
  out += "t=";
  out += std::to_string(ts);
  out += ' ';
  out += tuple.to_string();
  out += " seq=";
  out += std::to_string(seq);
  if (is_ack()) {
    out += " ack=";
    out += std::to_string(ack);
  }
  out += " len=";
  out += std::to_string(payload);
  std::string flag_text;  // hotpath-ok: debug formatting
  if (is_syn()) flag_text += 'S';
  if (is_fin()) flag_text += 'F';
  if (is_rst()) flag_text += 'R';
  if (is_ack()) flag_text += 'A';
  if (has_flag(tcp_flag::kPsh)) flag_text += 'P';
  if (!flag_text.empty()) {
    out += " [";
    out += flag_text;
    out += ']';
  }
  out += outbound ? " out" : " in";
  return out;
}

}  // namespace dart
