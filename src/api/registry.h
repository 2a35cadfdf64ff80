/**
 * @file
 * ExperimentRegistry: every figure/table/extension experiment
 * self-registers as a function from Session to Result, and the
 * `fpraker` multiplexer (and the fprakerd daemon) looks it up by id.
 * Registration happens from static initializers in the
 * src/api/experiments/ sources via REGISTER_EXPERIMENT, so linking
 * the experiment objects into a binary is what populates the
 * registry.
 */

#ifndef FPRAKER_API_REGISTRY_H
#define FPRAKER_API_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "api/result.h"
#include "api/session.h"

namespace fpraker {
namespace api {

/** The body of an experiment: consume a configured Session, produce
 *  the structured Result (identity/provenance filled by the driver). */
using ExperimentFn = std::function<Result(Session &)>;

struct ExperimentInfo
{
    std::string id;          //!< CLI slug, e.g. "fig11".
    std::string display;     //!< Banner label, e.g. "Fig. 11".
    std::string title;       //!< What the experiment measures.
    std::string expectation; //!< The paper's expected shape.
    ExperimentFn fn;
};

class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register an experiment; panics on a duplicate id. */
    bool add(ExperimentInfo info);

    /** Look up by id; nullptr when unknown. */
    const ExperimentInfo *find(const std::string &id) const;

    /** All experiments, sorted by id. */
    std::vector<const ExperimentInfo *> all() const;

    size_t size() const { return experiments_.size(); }

  private:
    ExperimentRegistry() = default;
    std::vector<ExperimentInfo> experiments_;
};

} // namespace api
} // namespace fpraker

#define FPRAKER_REG_CONCAT_(a, b) a##b
#define FPRAKER_REG_CONCAT(a, b) FPRAKER_REG_CONCAT_(a, b)

/**
 * Define and register an experiment. Usage:
 *
 *   REGISTER_EXPERIMENT("fig11", "Fig. 11", "title...", "expectation...")
 *   {
 *       ... body using `session`, returning a Result ...
 *   }
 */
#define REGISTER_EXPERIMENT(id, display, title, expectation)               \
    static ::fpraker::api::Result FPRAKER_REG_CONCAT(                      \
        fprakerExperimentFn_, __LINE__)(::fpraker::api::Session &);        \
    static const bool FPRAKER_REG_CONCAT(fprakerExperimentReg_,            \
                                         __LINE__) =                       \
        ::fpraker::api::ExperimentRegistry::instance().add(                \
            {id, display, title, expectation,                              \
             &FPRAKER_REG_CONCAT(fprakerExperimentFn_, __LINE__)});        \
    static ::fpraker::api::Result FPRAKER_REG_CONCAT(                      \
        fprakerExperimentFn_,                                              \
        __LINE__)([[maybe_unused]] ::fpraker::api::Session &session)

#endif // FPRAKER_API_REGISTRY_H
