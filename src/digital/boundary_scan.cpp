#include "digital/boundary_scan.hpp"

#include <stdexcept>

namespace fxg::digital {

const char* tap_state_name(TapState s) noexcept {
    switch (s) {
        case TapState::TestLogicReset: return "Test-Logic-Reset";
        case TapState::RunTestIdle: return "Run-Test/Idle";
        case TapState::SelectDrScan: return "Select-DR-Scan";
        case TapState::CaptureDr: return "Capture-DR";
        case TapState::ShiftDr: return "Shift-DR";
        case TapState::Exit1Dr: return "Exit1-DR";
        case TapState::PauseDr: return "Pause-DR";
        case TapState::Exit2Dr: return "Exit2-DR";
        case TapState::UpdateDr: return "Update-DR";
        case TapState::SelectIrScan: return "Select-IR-Scan";
        case TapState::CaptureIr: return "Capture-IR";
        case TapState::ShiftIr: return "Shift-IR";
        case TapState::Exit1Ir: return "Exit1-IR";
        case TapState::PauseIr: return "Pause-IR";
        case TapState::Exit2Ir: return "Exit2-IR";
        case TapState::UpdateIr: return "Update-IR";
    }
    return "?";
}

BoundaryScan::BoundaryScan(std::size_t boundary_cells, std::uint32_t idcode)
    : boundary_shift_(boundary_cells, false), boundary_update_(boundary_cells, false),
      pins_(boundary_cells, false), idcode_(idcode) {
    if (boundary_cells == 0) throw std::invalid_argument("BoundaryScan: need >= 1 cell");
    if ((idcode & 1u) == 0) {
        throw std::invalid_argument("BoundaryScan: IDCODE LSB must be 1");
    }
}

TapState BoundaryScan::next_state(TapState s, bool tms) noexcept {
    switch (s) {
        case TapState::TestLogicReset:
            return tms ? TapState::TestLogicReset : TapState::RunTestIdle;
        case TapState::RunTestIdle:
            return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
        case TapState::SelectDrScan:
            return tms ? TapState::SelectIrScan : TapState::CaptureDr;
        case TapState::CaptureDr:
            return tms ? TapState::Exit1Dr : TapState::ShiftDr;
        case TapState::ShiftDr:
            return tms ? TapState::Exit1Dr : TapState::ShiftDr;
        case TapState::Exit1Dr:
            return tms ? TapState::UpdateDr : TapState::PauseDr;
        case TapState::PauseDr:
            return tms ? TapState::Exit2Dr : TapState::PauseDr;
        case TapState::Exit2Dr:
            return tms ? TapState::UpdateDr : TapState::ShiftDr;
        case TapState::UpdateDr:
            return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
        case TapState::SelectIrScan:
            return tms ? TapState::TestLogicReset : TapState::CaptureIr;
        case TapState::CaptureIr:
            return tms ? TapState::Exit1Ir : TapState::ShiftIr;
        case TapState::ShiftIr:
            return tms ? TapState::Exit1Ir : TapState::ShiftIr;
        case TapState::Exit1Ir:
            return tms ? TapState::UpdateIr : TapState::PauseIr;
        case TapState::PauseIr:
            return tms ? TapState::Exit2Ir : TapState::PauseIr;
        case TapState::Exit2Ir:
            return tms ? TapState::UpdateIr : TapState::ShiftIr;
        case TapState::UpdateIr:
            return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    }
    return TapState::TestLogicReset;
}

bool BoundaryScan::clock(bool tms, bool tdi) {
    bool tdo = false;
    // Actions are taken in the state being exited (capture/shift happen
    // while in Capture/Shift states on the clock edge).
    switch (state_) {
        case TapState::CaptureIr:
            ir_shift_ = 0b0101;  // standard: two LSBs must be 01
            break;
        case TapState::ShiftIr:
            tdo = ir_shift_ & 1u;
            ir_shift_ = static_cast<std::uint8_t>((ir_shift_ >> 1) | (tdi ? 0b1000 : 0));
            break;
        case TapState::UpdateIr:
            break;
        case TapState::CaptureDr:
            switch (instruction_) {
                case TapInstruction::Idcode: dr_shift_ = idcode_; break;
                case TapInstruction::Bypass: dr_shift_ = 0; break;
                case TapInstruction::Sample:
                case TapInstruction::Extest:
                    boundary_shift_.assign(pins_.begin(), pins_.end());
                    break;
            }
            break;
        case TapState::ShiftDr:
            if (instruction_ == TapInstruction::Idcode) {
                tdo = dr_shift_ & 1u;
                dr_shift_ = (dr_shift_ >> 1) | (tdi ? 0x8000'0000u : 0u);
            } else if (instruction_ == TapInstruction::Bypass) {
                tdo = dr_shift_ & 1u;
                dr_shift_ = tdi ? 1u : 0u;
            } else {
                tdo = boundary_shift_.front();
                boundary_shift_.erase(boundary_shift_.begin());
                boundary_shift_.push_back(tdi);
            }
            break;
        default:
            break;
    }

    const TapState prev = state_;
    state_ = next_state(state_, tms);

    // Update actions fire on entry into the Update states.
    if (state_ == TapState::UpdateIr && prev != TapState::UpdateIr) {
        instruction_ = static_cast<TapInstruction>(ir_shift_ & 0b1111);
    }
    if (state_ == TapState::UpdateDr && prev != TapState::UpdateDr) {
        if (instruction_ == TapInstruction::Extest ||
            instruction_ == TapInstruction::Sample) {
            boundary_update_ = boundary_shift_;
        }
    }
    if (state_ == TapState::TestLogicReset) instruction_ = TapInstruction::Idcode;
    return tdo;
}

void BoundaryScan::set_pin(std::size_t cell, bool value) {
    if (cell >= pins_.size()) throw std::out_of_range("BoundaryScan::set_pin");
    pins_[cell] = value;
}

bool BoundaryScan::driven(std::size_t cell) const {
    if (cell >= boundary_update_.size()) throw std::out_of_range("BoundaryScan::driven");
    return boundary_update_[cell];
}

void BoundaryScan::reset() {
    for (int i = 0; i < 5; ++i) clock(true, false);
}

}  // namespace fxg::digital
