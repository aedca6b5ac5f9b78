#pragma once

/// \file boundary_scan.hpp
/// IEEE 1149.1-style boundary-scan test logic. The paper's MCM is
/// "equipped with boundary scan test structures [Oli96]"; this module
/// models the TAP controller, instruction register, bypass register and
/// a boundary register around the compass die so the MCM-level test
/// access is simulatable (and testable).

#include <cstdint>
#include <string>
#include <vector>

namespace fxg::digital {

/// The sixteen TAP controller states of IEEE 1149.1.
enum class TapState : std::uint8_t {
    TestLogicReset,
    RunTestIdle,
    SelectDrScan,
    CaptureDr,
    ShiftDr,
    Exit1Dr,
    PauseDr,
    Exit2Dr,
    UpdateDr,
    SelectIrScan,
    CaptureIr,
    ShiftIr,
    Exit1Ir,
    PauseIr,
    Exit2Ir,
    UpdateIr,
};

/// Human-readable state name.
const char* tap_state_name(TapState s) noexcept;

/// Supported instructions (4-bit IR).
enum class TapInstruction : std::uint8_t {
    Extest = 0b0000,
    Sample = 0b0001,
    Idcode = 0b0010,
    Bypass = 0b1111,
};

/// TAP controller plus data registers for one scan chain member.
class BoundaryScan {
public:
    /// \param boundary_cells number of boundary-register cells
    /// \param idcode 32-bit device identification code (LSB must be 1
    ///        per the standard).
    explicit BoundaryScan(std::size_t boundary_cells = 16,
                          std::uint32_t idcode = 0x1A57'0F01u);

    /// One TCK rising edge with the given TMS/TDI; returns TDO.
    /// (TDO changes on the falling edge in silicon; for simulation the
    /// value returned is what the tester would sample next.)
    bool clock(bool tms, bool tdi);

    [[nodiscard]] TapState state() const noexcept { return state_; }
    [[nodiscard]] TapInstruction instruction() const noexcept { return instruction_; }

    /// Parallel input pins captured by SAMPLE/EXTEST (set by the system).
    void set_pin(std::size_t cell, bool value);

    /// Values driven onto the pins by the update latch under EXTEST.
    [[nodiscard]] bool driven(std::size_t cell) const;

    [[nodiscard]] std::size_t boundary_cells() const noexcept { return pins_.size(); }
    [[nodiscard]] std::uint32_t idcode() const noexcept { return idcode_; }

    /// Applies >= 5 TMS-high clocks (standard synchronous reset).
    void reset();

private:
    [[nodiscard]] static TapState next_state(TapState s, bool tms) noexcept;

    TapState state_ = TapState::TestLogicReset;
    TapInstruction instruction_ = TapInstruction::Idcode;
    std::uint8_t ir_shift_ = 0;
    std::uint32_t dr_shift_ = 0;            ///< idcode/bypass shift register
    std::vector<bool> boundary_shift_;      ///< boundary shift stage
    std::vector<bool> boundary_update_;     ///< boundary update latch
    std::vector<bool> pins_;                ///< system pin values
    std::uint32_t idcode_;
};

}  // namespace fxg::digital
