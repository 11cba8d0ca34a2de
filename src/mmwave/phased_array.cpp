#include "mmwave/phased_array.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/units.h"

namespace volcast::mmwave {

void power_normalize(Awv& w) noexcept {
  double power = 0.0;
  for (const Complex& c : w) power += std::norm(c);
  if (power <= 0.0) return;
  const double scale = 1.0 / std::sqrt(power);
  for (Complex& c : w) c *= scale;
}

PhasedArray::PhasedArray(const ArrayGeometry& geometry, const geo::Pose& pose,
                         double carrier_hz)
    : geometry_(geometry),
      pose_(pose),
      wavelength_m_(wavelength_m(carrier_hz)) {
  if (geometry.element_count() == 0)
    throw std::invalid_argument("PhasedArray: empty geometry");
  if (carrier_hz <= 0.0)
    throw std::invalid_argument("PhasedArray: non-positive carrier");
  // Element (iy, iz) sits at y0 + d iy along local y and z0 + d iz along
  // local z; each axis keeps k times those positions.
  const double k = 2.0 * std::numbers::pi / wavelength_m_;
  const double d = geometry.spacing_wavelengths * wavelength_m_;
  const double y0 = -0.5 * d * (geometry.ny - 1);
  const double z0 = -0.5 * d * (geometry.nz - 1);
  wave_y_.reserve(geometry.ny);
  wave_z_.reserve(geometry.nz);
  for (unsigned iy = 0; iy < geometry.ny; ++iy)
    wave_y_.push_back(k * (y0 + d * static_cast<double>(iy)));
  for (unsigned iz = 0; iz < geometry.nz; ++iz)
    wave_z_.push_back(k * (z0 + d * static_cast<double>(iz)));
}

geo::Vec3 PhasedArray::local_direction(
    const geo::Vec3& dir_world) const noexcept {
  const geo::Vec3 u = dir_world.normalized();
  return {u.dot(pose_.forward()), u.dot(pose_.left()), u.dot(pose_.up())};
}

// PhasedArray::response is the only place a response is computed, and
// Steering::gain the scalar array factor behind rss_dbm and
// PhasedArray::gain; LinkTable and Codebook use its batched twin,
// array_gains (array_gains.cpp). They stay out of line so that each is
// compiled exactly once, and both files are compiled without FMA
// contraction (CMakeLists.txt).
[[gnu::noinline]] double Steering::gain(const Awv& w) const noexcept {
  if (w.size() != phasors.size()) return 0.0;
  Complex af{0.0, 0.0};
  for (std::size_t i = 0; i < w.size(); ++i) af += w[i] * phasors[i];
  return std::norm(af) * element_gain;
}

// The planar array's factor is the product of its two axes' factors. The
// y factors are written to row 0 first and every row is built from them,
// the last row first, so row 0 is overwritten last and no scratch is
// needed. The product (a + jb)(c + js) is written out as
// re = a c - b s, im = a s + b c.
[[gnu::noinline]] double PhasedArray::response(
    const geo::Vec3& local, PhasorSink out) const noexcept {
  const std::size_t ny = wave_y_.size();
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const double phase = wave_y_[iy] * local.y;
    out.re[iy * out.stride] = std::cos(phase);
    out.im[iy * out.stride] = std::sin(phase);
  }
  for (std::size_t iz = wave_z_.size(); iz-- > 0;) {
    const double phase = wave_z_[iz] * local.z;
    const double c = std::cos(phase);
    const double s = std::sin(phase);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double a = out.re[iy * out.stride];
      const double b = out.im[iy * out.stride];
      const std::size_t i = (iz * ny + iy) * out.stride;
      out.re[i] = a * c - b * s;
      out.im[i] = a * s + b * c;
    }
  }
  return element_gain(local.x);
}

void PhasedArray::response(const geo::Vec3& local, Steering& out) const {
  out.phasors.resize(element_count());
  // The standard lets an array of std::complex<double> be read and written
  // as an array of doubles, each real part followed by its imaginary part.
  double* parts = reinterpret_cast<double*>(out.phasors.data());
  out.element_gain = response(local, {parts, parts + 1, 2});
}

Steering PhasedArray::steering(const geo::Vec3& dir_world) const {
  Steering s;
  response(local_direction(dir_world), s);
  return s;
}

void PhasedArray::steer(const Steering& response, Awv& out) {
  // Conjugate steering: cancel the per-element propagation phase.
  out.clear();
  for (const Complex& p : response.phasors) out.push_back(std::conj(p));
  power_normalize(out);
}

Awv PhasedArray::steer(const geo::Vec3& dir_world) const {
  Awv w;
  steer(steering(dir_world), w);
  return w;
}

Awv PhasedArray::steer_at(const geo::Vec3& target_world) const {
  return steer(target_world - pose_.position);
}

double PhasedArray::element_gain(double cos_theta) noexcept {
  constexpr double kPeak = 4.0;  // ~6 dBi
  if (cos_theta <= 0.0) return kPeak * 1e-3;  // backplane isolation
  return kPeak * cos_theta * cos_theta;
}

double PhasedArray::gain(const Awv& w, const geo::Vec3& dir_world) const {
  if (w.size() != element_count()) return 0.0;
  return steering(dir_world).gain(w);
}

double PhasedArray::gain_dbi(const Awv& w, const geo::Vec3& dir_world) const {
  return ratio_to_db(std::max(gain(w, dir_world), 1e-12));
}

}  // namespace volcast::mmwave
