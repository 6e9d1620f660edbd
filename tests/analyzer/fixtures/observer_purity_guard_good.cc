// dibs-analyzer fixture: the GuardRecorder pattern is accepted as a pure
// observer — it reads breaker state through const accessors and mutates only
// its own counters. The one deliberate violation below is escaped with
// lint:allow; the runner asserts it shows up as *suppressed*, proving the
// rule saw the guard classes.

namespace dibs {

class DetourGuard {
 public:
  int state() const { return state_; }
  long trips() const { return trips_; }
  double SuppressedFor(double now) const { return now - since_; }
  bool AdmitDetour() {
    ++attempts_;
    return state_ == 0;
  }

 private:
  int state_ = 0;
  long trips_ = 0;
  long attempts_ = 0;
  double since_ = 0;
};

class GuardFabric {
 public:
  const DetourGuard& guard(int node) const {
    (void)node;
    return guard_;
  }
  double FabricPressure() const { return pressure_; }
  void NotePacket(int node) { last_node_ = node; }

 private:
  DetourGuard guard_;
  double pressure_ = 0;
  int last_node_ = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(int ev) { (void)ev; }
};

}  // namespace dibs

namespace fixture {

// The GuardRecorder shape: transition bookkeeping and const reads only.
class GuardRecorder : public dibs::TraceSink {
 public:
  explicit GuardRecorder(const dibs::GuardFabric& fabric) : fabric_(fabric) {}
  void OnEvent(int ev) override {
    if (ev < 0) {
      OnDrop(-ev);
    } else {
      OnGuardTransition(ev, 0, 1);
    }
  }

 private:
  void OnGuardTransition(int node, int from, int to) {
    ++transitions_;
    if (from == 0 && to == 1) {
      ++trips_;
    }
    last_pressure_ = fabric_.FabricPressure();       // const: pure
    last_trips_ = fabric_.guard(node).trips();       // const chain: pure
    dwell_ = fabric_.guard(node).SuppressedFor(1.0); // const: pure
  }
  void OnDrop(int uid) {
    (void)uid;
    if (meddler_ != nullptr) {
      meddler_->NotePacket(0);  // lint:allow(observer-purity)
    }
  }

  const dibs::GuardFabric& fabric_;
  dibs::GuardFabric* meddler_ = nullptr;
  long transitions_ = 0;
  long trips_ = 0;
  long last_trips_ = 0;
  double last_pressure_ = 0;
  double dwell_ = 0;
};

// Not an observer: SwitchNode-style forwarding code drives the guard by
// design — the rule must not follow calls that start outside observers.
class ForwardingPath {
 public:
  bool Decide(dibs::GuardFabric& fabric, dibs::DetourGuard& guard) {
    fabric.NotePacket(3);
    return guard.AdmitDetour();
  }
};

}  // namespace fixture
