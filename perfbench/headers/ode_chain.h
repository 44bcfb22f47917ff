// Components of the LibSolve RK4 solver of Figure 7, the nine the
// ode_chain workload invokes by name. Raw-pointer operands, and each
// <param>_count parameter gives the composition tool an operand extent.
void ode_init(float* out_y, unsigned int n);
void ode_copy(const float* src, float* out_dst, unsigned int n);
void ode_rhs(const float* jacobian, const float* y, float* out_k, unsigned int n,
             unsigned int jacobian_count);
void ode_stage2(const float* y, const float* k1, float* out_t, unsigned int n,
                float h, float c1);
void ode_stage3(const float* y, const float* k1, const float* k2, float* out_t,
                unsigned int n, float h, float c1, float c2);
void ode_stage4(const float* y, const float* k1, const float* k2, const float* k3,
                float* out_t, unsigned int n, float h, float c1, float c2, float c3);
void ode_combine(float* y, const float* k1, const float* k2, const float* k3,
                 const float* k4, unsigned int n, float h, float c1, float c2,
                 float c3, float c4);
void ode_error(const float* k1, const float* k2, const float* k3, const float* k4,
               float* out_err, unsigned int n, float h, float c1, float c2,
               float c3, float c4, unsigned int out_err_count);
void ode_scale(float* x, unsigned int n, float c1);
