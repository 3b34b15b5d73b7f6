// dart-analyze fixture: a std::jthread outside the shard runtime. It joins
// on destruction but is still a raw thread, so it is rejected under the
// default classification (CON002 once), like std::thread.
#include <thread>

namespace fixture {

inline void scoped_worker() {
  const std::jthread worker([] {});
}

}  // namespace fixture
