// dibs-analyzer fixture: nothing here may fire [observer-purity], except the
// one deliberately violating line below, suppressed by lint:allow — the
// runner asserts it shows up as *suppressed*, proving the rule saw it.

namespace dibs {

class Simulator {
 public:
  double Now() const { return now_; }
  void Schedule(double delay) { last_ = delay; }

 private:
  double now_ = 0;
  double last_ = 0;
};

class Network {
 public:
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  void Inject(int pkt) { injected_ = pkt; }
  int injected() const { return injected_; }

 private:
  Simulator sim_;
  int injected_ = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(int ev) { (void)ev; }
};

}  // namespace dibs

namespace fixture {

// Observers may read as much simulated state as they like — through const
// accessors — and mutate their OWN state freely.
class PassiveObserver : public dibs::TraceSink {
 public:
  explicit PassiveObserver(const dibs::Network& net) : net_(net) {}
  void OnEvent(int ev) override {
    if (ev < 0) {
      OnDrop(-ev);
    } else {
      OnEnqueue(ev);
    }
  }

 private:
  void OnDrop(int uid) {
    drops_ += uid;
    last_now_ = net_.sim().Now();  // const sim() + const Now(): pure
  }
  void OnEnqueue(int uid) {
    peak_ = uid > peak_ ? uid : peak_;
    if (injector_ != nullptr) {
      injector_->Inject(uid);  // lint:allow(observer-purity)
    }
  }

  const dibs::Network& net_;
  dibs::Network* injector_ = nullptr;
  long drops_ = 0;
  int peak_ = 0;
  double last_now_ = 0;
};

class CountingSink : public dibs::TraceSink {
 public:
  void OnEvent(int ev) override { count_ += ev; }
  long count() const { return count_; }

 private:
  long count_ = 0;
};

// Not an observer: drivers mutate the world by design, the rule must not
// follow calls that do not originate in observer code.
class Driver {
 public:
  void Step(dibs::Network& net) {
    net.Inject(1);
    net.sim().Schedule(0.5);
  }
};

}  // namespace fixture
