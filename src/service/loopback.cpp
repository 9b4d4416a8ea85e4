#include "service/loopback.h"

namespace tfa::service {

std::vector<std::string> Loopback::roundtrip(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) out.push_back(service_.submit(line));
  return out;
}

std::string Loopback::request(std::string_view line) {
  return service_.submit(line);
}

}  // namespace tfa::service
