#include "mac/mac.h"

namespace jtp::mac {

std::string mac_name(Mac m) {
  switch (m) {
    case Mac::kTdma: return "tdma";
    case Mac::kTdmaReuse: return "tdma_reuse";
    case Mac::kCsma: return "csma";
  }
  return "?";
}

std::optional<Mac> parse_mac(std::string_view name) {
  for (const Mac m : kAllMacs)
    if (name == mac_name(m)) return m;
  return std::nullopt;
}

}  // namespace jtp::mac
