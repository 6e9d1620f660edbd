// dibs-analyzer fixture: every marked line must fire [observer-purity].
// Minimal mirrors of the dibs:: simulation-state classes and the TraceSink
// base — the rule keys on qualified names, so these stand in for the real
// ones.

namespace dibs {

class Simulator {
 public:
  double Now() const { return now_; }
  void Schedule(double delay) { last_ = delay; }
  void Cancel(int id) { last_ = id; }

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

// Reached only from MeddlingObserver::OnEnqueue below: the finding lands at
// the mutating call site inside this repo-local helper.
void PokeNetwork(dibs::Network& net) {
  net.Inject(99);  // expect(observer-purity)
}

class MeddlingObserver : public dibs::TraceSink {
 public:
  explicit MeddlingObserver(dibs::Network& net) : net_(net) {
    net_.Inject(0);  // constructors are exempt: registration-time setup
  }
  void OnEvent(int ev) override {
    if (ev < 0) {
      OnDrop(-ev);
    } else {
      OnEnqueue(ev);
    }
  }

 private:
  // Private helpers of a sink are sink code too.
  void OnDrop(int uid) {
    net_.sim().Schedule(1.0);  // expect(observer-purity)
    net_.Inject(uid);          // expect(observer-purity)
  }
  void OnEnqueue(int uid) {
    (void)uid;
    PokeNetwork(net_);  // indirect: flagged inside PokeNetwork, not here
  }

  dibs::Network& net_;
};

class SchedulingSink : public dibs::TraceSink {
 public:
  explicit SchedulingSink(dibs::Simulator& sim) : sim_(sim) {}
  void OnEvent(int ev) override {
    (void)ev;
    sim_.Cancel(7);  // expect(observer-purity)
  }

 private:
  dibs::Simulator& sim_;
};

}  // namespace fixture
