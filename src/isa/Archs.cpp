//===- isa/Archs.cpp - Architecture registry ------------------------------===//

#include "isa/Spec.h"
#include "isa/Tables.h"

#include <array>
#include <cassert>
#include <memory>
#include <mutex>

using namespace dcb;
using namespace dcb::isa;

namespace {

std::unique_ptr<ArchSpec> buildSpec(Arch A) {
  auto Spec = std::make_unique<ArchSpec>();
  Spec->A = A;
  switch (archFamily(A)) {
  case EncodingFamily::Fermi:
    buildFermiFamily(*Spec);
    break;
  case EncodingFamily::Kepler2:
    buildKepler2Family(*Spec);
    break;
  case EncodingFamily::Maxwell:
    buildMaxwellFamily(*Spec);
    break;
  case EncodingFamily::Volta:
    buildVoltaFamily(*Spec);
    break;
  }
  assert(!Spec->checkNoAmbiguity() && "ambiguous opcode patterns");
  // Eagerly index decode dispatch: built-in specs are immutable from here
  // on, so every consumer shares the frozen index without a first-use race.
  Spec->freezeDecode();
  return Spec;
}

} // namespace

const ArchSpec &isa::getArchSpec(Arch A) {
  // Each arch's spec is built, checked and frozen on its own first use, so
  // a command pays only for the archs it touches. Immutable afterwards;
  // call_once makes the per-arch initialization thread-safe.
  constexpr size_t NumArchs = 9;
  static std::array<std::once_flag, NumArchs> Built;
  static std::array<std::unique_ptr<ArchSpec>, NumArchs> Specs;
  const size_t I = static_cast<size_t>(A);
  assert(I < NumArchs && "unknown arch");
  std::call_once(Built[I], [&] { Specs[I] = buildSpec(A); });
  return *Specs[I];
}
