// dibs-analyzer fixture: every marked line must fire [observer-purity].
// DetourGuard and GuardFabric are simulation state — an observer that calls
// their non-const methods is steering the breaker, not observing it.

namespace dibs {

class DetourGuard {
 public:
  int state() const { return state_; }
  bool AdmitDetour() {
    ++attempts_;
    return state_ == 0;
  }
  void NoteTtlExpiry() { ++ttl_drops_; }

 private:
  int state_ = 0;
  long attempts_ = 0;
  long ttl_drops_ = 0;
};

class GuardFabric {
 public:
  double FabricPressure() const { return pressure_; }
  void NotePacket(int node) { last_node_ = node; }
  void NoteDetour(int node, bool bounce) {
    last_node_ = node;
    (void)bounce;
  }

 private:
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

// Reached only from SteeringObserver::OnDrop below: the finding lands at the
// mutating call inside this repo-local helper.
void PumpDemand(dibs::DetourGuard& guard) {
  guard.AdmitDetour();  // expect(observer-purity)
}

class SteeringObserver : public dibs::TraceSink {
 public:
  SteeringObserver(dibs::GuardFabric& fabric, dibs::DetourGuard& guard)
      : fabric_(fabric), guard_(guard) {
    fabric_.NotePacket(0);  // constructors are exempt: registration-time setup
  }
  void OnEvent(int ev) override {
    if (ev < 0) {
      OnDrop(-ev);
    } else {
      OnGuardTransition(ev, 0, 1);
    }
  }

 private:
  void OnGuardTransition(int node, int from, int to) {
    (void)from;
    (void)to;
    fabric_.NoteDetour(node, false);  // expect(observer-purity)
    guard_.NoteTtlExpiry();           // expect(observer-purity)
  }
  void OnDrop(int uid) {
    (void)uid;
    PumpDemand(guard_);  // indirect: flagged inside PumpDemand, not here
  }

  dibs::GuardFabric& fabric_;
  dibs::DetourGuard& guard_;
};

}  // namespace fixture
