#include "lease/lease.h"

namespace gtpl::lease {

const LeaseModeRegistry& LeaseModes() {
  static const LeaseModeRegistry* modes = new LeaseModeRegistry(
      "lease mode",
      {
          {"none", "leases disabled: every lock acquisition pays the WAN round",
           LeaseMode::kNone},
          {"sticky",
           "sticky site leases with callback revocation: repeat acquisitions "
           "hit the client cache for zero flights",
           LeaseMode::kSticky},
      });
  return *modes;
}

const char* ToString(LeaseMode mode) { return LeaseModes().For(mode).name; }

}  // namespace gtpl::lease
