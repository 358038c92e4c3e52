#ifndef COOLAIR_SIM_MODEL_PLANT_HPP
#define COOLAIR_SIM_MODEL_PLANT_HPP

/**
 * @file
 * Real-Sim / Smooth-Sim: simulators whose physics *is* the learned
 * Cooling Model.
 *
 * Paper §5.1: "To compute temperatures and humidity over time, they
 * [Real-Sim and Smooth-Sim] repeatedly call the same code implementing
 * CoolAir's Cooling Predictor."  ModelPlant does exactly that — it
 * advances pod temperatures and humidity one model step at a time using
 * the learned per-regime linear models, instead of the physical plant
 * equations.  Comparing a controller run on the physics Plant ("real")
 * against the same controller run on ModelPlant reproduces the paper's
 * validation methodology (Figures 6 and 7).  Both runs go through the
 * one closed loop, sim::Engine: ModelPlant is a plant::PlantModel.
 */

#include "cooling/regime.hpp"
#include "environment/climate.hpp"
#include "model/cooling_model.hpp"
#include "plant/parasol.hpp"

namespace coolair {
namespace sim {

/**
 * Learned-model-driven plant.  sim::Engine steps it like the physics
 * plant, at the model step (ModelSimScenario in sim/scenario.hpp).
 */
class ModelPlant final : public plant::PlantModel
{
  public:
    /**
     * @param model        the learned cooling model (not owned)
     * @param plant_config geometry/power constants (for IT power,
     *                     actuator emulation and the steady-state start)
     * @param seed         the physics plant seed of the steady-state start
     */
    ModelPlant(const model::CoolingModel *model,
               const plant::PlantConfig &plant_config, uint64_t seed);

    using PlantModel::readSensors;

    /**
     * Start where the physics plant starts: a fresh physics Plant with
     * the same configuration and seed, initialized at @p outside, whose
     * sensor readings reset() installs.
     */
    void initializeSteadyState(const environment::WeatherSample &outside,
                               double inside_offset_c) override;

    /** Set the state from a sensor snapshot. */
    void reset(const plant::SensorReadings &init);

    /**
     * Advance one model step with the commanded regime under the given
     * outside conditions and load.
     * @p dt_s must be stepS().
     */
    void step(double dt_s, const environment::WeatherSample &outside,
              const plant::PodLoad &load,
              const cooling::Regime &command) override;

    /** Current (noise-free) synthetic sensor readings. */
    void readSensors(plant::SensorReadings &out) override;

    /** Model step length [s]. */
    double stepS() const { return _model->config().stepS; }

  private:
    double itPowerFor(const plant::PodLoad &load, double *dc_util) const;

    /** The regime the emulated actuators are in. */
    cooling::Regime actualRegime() const;

    const model::CoolingModel *_model;
    plant::PlantConfig _plantConfig;
    uint64_t _seed;
    cooling::Actuators _actuators;

    std::vector<double> _temp;
    std::vector<double> _tempPrev;
    double _absHumidity = 8.0;
    double _fanPrev = 0.0;
    cooling::Regime _prevRegime;
    environment::WeatherSample _outside;
    environment::WeatherSample _outsidePrev;
    double _itPowerW = 0.0;
    double _dcUtilization = 1.0;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_MODEL_PLANT_HPP
