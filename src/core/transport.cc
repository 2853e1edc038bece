#include "core/transport.h"

namespace jtp::core {

std::string proto_name(Proto p) {
  switch (p) {
    case Proto::kJtp: return "jtp";
    case Proto::kJnc: return "jnc";
    case Proto::kTcp: return "tcp";
    case Proto::kAtp: return "atp";
    case Proto::kJtpDr: return "jtp_dr";
    case Proto::kBbr: return "bbr";
  }
  return "?";
}

std::optional<Proto> parse_proto(std::string_view name) {
  if (name == "jtp-dr") return Proto::kJtpDr;
  for (const Proto p : kAllProtos)
    if (name == proto_name(p)) return p;
  return std::nullopt;
}

}  // namespace jtp::core
