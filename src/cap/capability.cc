#include "cap/capability.h"

#include "common/rand.h"

namespace amoeba::cap {

void Capability::encode(Writer& w) const {
  w.u64(port.v);
  w.u32(object);
  w.u8(rights);
  w.u64(check);
}

Capability Capability::decode(Reader& r) {
  Capability c;
  c.port = net::Port{r.u64()};
  c.object = r.u32();
  c.rights = r.u8();
  c.check = r.u64();
  return c;
}

std::string Capability::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "cap(port=%llx obj=%u rights=%02x)",
                static_cast<unsigned long long>(port.v), object, rights);
  return buf;
}

std::uint64_t CheckScheme::make_check(std::uint64_t secret, Rights rights) {
  if (rights == kRightsAll) return secret & kCheckMask;
  return mix64(secret ^ (0x5137ULL * rights)) & kCheckMask;
}

Capability CheckScheme::owner(net::Port port, std::uint32_t object,
                              std::uint64_t secret) {
  return {port, object, kRightsAll, make_check(secret, kRightsAll)};
}

bool CheckScheme::verify(const Capability& c, std::uint64_t secret) {
  return c.check == make_check(secret, c.rights);
}

Capability CheckScheme::restrict(const Capability& c, Rights mask,
                                 std::uint64_t secret) {
  Capability out = c;
  out.rights = static_cast<Rights>(c.rights & mask);
  out.check = make_check(secret, out.rights);
  return out;
}

}  // namespace amoeba::cap
