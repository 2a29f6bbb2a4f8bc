#include "configsvc/simple_service.h"

namespace ratc::configsvc {

void SimpleConfigService::on_message(ProcessId from, const sim::AnyMessage& msg) {
  if (!request_id(msg)) return;
  Store::Outcome out = store_.apply(msg);
  rt().send(id(), from, std::move(out.reply));
  notify(out.change);
}

}  // namespace ratc::configsvc
