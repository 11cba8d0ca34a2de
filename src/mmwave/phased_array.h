// Phased antenna array with explicit antenna weight vectors (AWVs).
//
// Models the Airfide 802.11ad AP from the paper's testbed (8 phased-array
// patches, Fig. 3a) as a uniform planar array: elements on a half-wavelength
// grid in the array's local y-z plane, boresight along local +x. A beam IS
// an AWV (one complex weight per element); beam gain in a direction is the
// array factor under that AWV times the element pattern. The paper's custom
// multi-lobe beams are synthesized by combining AWVs (beam_design.h), which
// is why the AWV is a first-class value here rather than an internal detail.
#pragma once

#include <complex>
#include <vector>

#include "geometry/pose.h"
#include "geometry/vec3.h"

namespace volcast::mmwave {

using Complex = std::complex<double>;

/// Antenna weight vector: one complex weight per element. Power-normalized
/// AWVs satisfy sum |w_i|^2 == 1 (total transmit power constraint — the
/// constraint the paper's multi-lobe combination must respect).
using Awv = std::vector<Complex>;

/// Scales `w` in place so that sum |w_i|^2 == 1 (no-op for a zero vector).
void power_normalize(Awv& w) noexcept;

/// The array's response toward one direction: the per-element phasors
/// exp(+j k e_i . u) and the element-pattern gain there. Evaluating many
/// AWVs toward one direction reuses it instead of redoing the trigonometry.
/// For the planar array each phasor is computed as the product of its two
/// axes' phasors (PhasedArray::response).
struct Steering {
  std::vector<Complex> phasors;  // one per element
  double element_gain = 0.0;

  /// Linear gain of `w` in this direction: |sum_i w_i p_i|^2 times the
  /// element gain; 0 when `w` does not have one weight per element.
  [[nodiscard]] double gain(const Awv& w) const noexcept;
};

/// Where PhasedArray::response writes a response's phasors: element i's
/// real part to re[i * stride] and its imaginary part to im[i * stride]
/// (a Steering's phasors, or one lane of a LaneBlocks).
struct PhasorSink {
  double* re;
  double* im;
  std::size_t stride;
};

/// Element layout of the array.
struct ArrayGeometry {
  unsigned ny = 8;  ///< elements along local y (the 8 patch columns)
  unsigned nz = 4;  ///< elements along local z
  double spacing_wavelengths = 0.5;

  [[nodiscard]] unsigned element_count() const noexcept { return ny * nz; }
};

/// A mounted phased array: geometry + world pose + carrier.
class PhasedArray {
 public:
  /// `pose.forward()` is the boresight; `pose.left()`/`pose.up()` span the
  /// element plane. Throws std::invalid_argument for an empty geometry.
  PhasedArray(const ArrayGeometry& geometry, const geo::Pose& pose,
              double carrier_hz);

  [[nodiscard]] const ArrayGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] const geo::Pose& pose() const noexcept { return pose_; }
  [[nodiscard]] std::size_t element_count() const noexcept {
    return wave_y_.size() * wave_z_.size();
  }

  /// Conjugate-steering AWV pointed at the world-space direction `dir`
  /// (need not be normalized), power-normalized.
  [[nodiscard]] Awv steer(const geo::Vec3& dir_world) const;

  /// Writes the conjugate-steering AWV of a precomputed response into
  /// `out`, reusing its storage: steer(dir) is this over steering(dir),
  /// bit for bit.
  static void steer(const Steering& response, Awv& out);

  /// AWV pointed at a world position (steer toward target - array origin).
  [[nodiscard]] Awv steer_at(const geo::Vec3& target_world) const;

  /// The array's response toward world direction `dir` (need not be
  /// normalized). gain() and steer() are both built on it. Equals what
  /// response(local_direction(dir), out) writes.
  [[nodiscard]] Steering steering(const geo::Vec3& dir_world) const;

  /// World direction `dir` (need not be normalized) as a unit vector in the
  /// array frame: x along boresight, y and z along the element plane. A
  /// response is a function of this vector alone, so two directions whose
  /// local vectors are equal bit for bit have the same response.
  [[nodiscard]] geo::Vec3 local_direction(
      const geo::Vec3& dir_world) const noexcept;

  /// Writes the response toward array-frame direction `local` into `out`,
  /// reusing its storage.
  void response(const geo::Vec3& local, Steering& out) const;

  /// Writes the response toward `local` into `out` (element_count()
  /// phasors) and returns its element gain: the one place a response is
  /// computed. Element (iy, iz), at index iz * ny + iy, gets
  /// exp(j k y_iy u_y) * exp(j k z_iz u_z), the factored form of
  /// exp(j k e_i . u): ny + nz cos/sin pairs per response instead of one
  /// per element, each component within about 1e-14 of the per-element
  /// form. It reads `out` back (row 0 holds the y factors until written
  /// last), allocates nothing and changes no member, so many threads may
  /// call it on one array.
  double response(const geo::Vec3& local, PhasorSink out) const noexcept;

  /// Linear transmit power gain of AWV `w` toward world direction `dir`:
  /// |array factor|^2 scaled by the single-element pattern. For a
  /// power-normalized conjugate-steered AWV the peak equals
  /// element_count() * element peak gain. Equals steering(dir).gain(w).
  [[nodiscard]] double gain(const Awv& w, const geo::Vec3& dir_world) const;

  /// gain() in dBi.
  [[nodiscard]] double gain_dbi(const Awv& w, const geo::Vec3& dir_world) const;

  /// Cosine-squared element power pattern with ~6 dBi peak and a hard
  /// backplane: 4 cos^2(theta) in front, -30 dB of the peak behind.
  [[nodiscard]] static double element_gain(double cos_theta) noexcept;

 private:
  ArrayGeometry geometry_;
  geo::Pose pose_;
  double wavelength_m_;
  // k y_iy and k z_iz (k = 2 pi / wavelength): the element positions along
  // each axis of the element plane, in radians per unit direction cosine.
  std::vector<double> wave_y_;
  std::vector<double> wave_z_;
};

}  // namespace volcast::mmwave
