#pragma once

/// \file circuit.hpp
/// Circuit container and device interface for the MNA engine.
///
/// Unknown vector layout: node voltages for nodes 1..N-1 (index - 1 into
/// the vector; ground is node index kGround and has no unknown), then
/// one entry per branch current, assigned by prepare() in device order.
/// Devices stamp a linearisation of themselves around the current
/// Newton iterate into the (A, z) system; linear devices ignore the
/// iterate. This single formulation covers DC and transient.

#include <memory>
#include <string>
#include <vector>

#include "spice/matrix.hpp"

namespace fxg::spice {

/// Node index of the ground/reference node.
inline constexpr int kGround = -1;

/// Companion-model integration method for reactive devices.
enum class Method {
    BackwardEuler,  ///< robust, first order
    Trapezoidal,    ///< second order, the SPICE default
};

/// Per-evaluation context handed to Device::stamp / commit.
struct DeviceContext {
    double time = 0.0;         ///< end-of-step time [s]
    double dt = 0.0;           ///< step size [s]; unused when dc
    Method method = Method::Trapezoidal;
    bool dc = false;           ///< true during operating-point analysis
    double source_scale = 1.0; ///< independent-source ramp (source stepping)
    const std::vector<double>* x = nullptr;  ///< current Newton iterate
};

/// Write-view of the MNA system with ground-aware helpers.
class Stamp {
public:
    Stamp(DenseMatrix& a, std::vector<double>& z) : a_(a), z_(z) {}

    /// Adds a conductance g between nodes `na` and `nb` (kGround allowed).
    void admittance(int na, int nb, double g);

    /// Adds a current `i` flowing INTO node `n` to the RHS.
    void rhs_current(int n, double i);

    /// Raw matrix add at (row, col); both must be valid unknown indices.
    void entry(int row, int col, double v);

    /// Raw RHS add.
    void rhs(int row, double v);

private:
    DenseMatrix& a_;
    std::vector<double>& z_;
};

class Circuit;
class AcStamp;
struct AcContext;

/// Base class of all circuit elements.
class Device {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;
    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /// Number of branch-current unknowns this device needs.
    [[nodiscard]] virtual int branch_count() const { return 0; }

    /// Stamps the linearisation around ctx.x into (A, z). May mutate
    /// internal per-iteration state (e.g. diode voltage limiting).
    virtual void stamp(Stamp& s, const DeviceContext& ctx) = 0;

    /// Stamps the small-signal (AC) linearisation at the operating
    /// point. The default implementation replays the DC stamp with the
    /// RHS discarded — exact for resistive and controlled-source
    /// devices (including nonlinear ones, which linearise at ctx.op);
    /// reactive devices and independent sources override it. Defined in
    /// ac_analysis.cpp.
    virtual void stamp_ac(AcStamp& s, const AcContext& ctx);

    /// Accepts the converged step: update companion-model history.
    virtual void commit(const DeviceContext& ctx) { (void)ctx; }

    /// Clears dynamic state back to t = 0.
    virtual void reset() {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Absolute unknown index of this device's k-th branch current
    /// (valid after Circuit::prepare()).
    [[nodiscard]] int branch(int k = 0) const { return branch_base_ + k; }
    void set_branch_base(int base) noexcept { branch_base_ = base; }

protected:
    /// Reads a node voltage from the Newton iterate (0 for ground).
    static double voltage(const DeviceContext& ctx, int node) {
        return node == kGround ? 0.0 : (*ctx.x)[static_cast<std::size_t>(node)];
    }
    /// Reads an unknown (branch current) from the Newton iterate.
    static double unknown(const DeviceContext& ctx, int index) {
        return (*ctx.x)[static_cast<std::size_t>(index)];
    }

private:
    std::string name_;
    int branch_base_ = -1;
};

/// A circuit: named nodes plus an ordered list of devices.
class Circuit {
public:
    explicit Circuit(std::string title = "circuit") : title_(std::move(title)) {}

    /// Returns the index for a named node, creating it on first use.
    /// "0", "gnd" and "ground" (case-insensitive) map to kGround.
    int node(const std::string& name);

    /// Looks up an existing node; throws if unknown.
    [[nodiscard]] int find_node(const std::string& name) const;

    [[nodiscard]] const std::string& node_name(int index) const;

    /// Number of non-ground nodes (= number of voltage unknowns).
    [[nodiscard]] int node_count() const noexcept {
        return static_cast<int>(node_names_.size());
    }

    /// Adds a device constructed in place; returns a reference to it.
    template <typename D, typename... Args>
    D& add(Args&&... args) {
        auto dev = std::make_unique<D>(std::forward<Args>(args)...);
        D& ref = *dev;
        devices_.push_back(std::move(dev));
        prepared_ = false;
        return ref;
    }

    [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const {
        return devices_;
    }
    [[nodiscard]] std::vector<std::unique_ptr<Device>>& devices() { return devices_; }

    /// Finds a device by name; nullptr if absent.
    [[nodiscard]] Device* find_device(const std::string& name);

    /// Assigns branch unknown indices. Called by the analyses; safe to
    /// call repeatedly.
    void prepare();

    /// Total unknowns: node voltages + branch currents (after prepare()).
    [[nodiscard]] int unknown_count() const noexcept { return unknown_count_; }

    [[nodiscard]] const std::string& title() const noexcept { return title_; }

    /// Resets all device dynamic state to t = 0.
    void reset_devices();

private:
    std::string title_;
    std::vector<std::string> node_names_;
    std::vector<std::unique_ptr<Device>> devices_;
    int unknown_count_ = 0;
    bool prepared_ = false;
};

}  // namespace fxg::spice
