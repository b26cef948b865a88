// Spec-coverage fixture: the driver grew its own confirm loop instead of
// calling VsToToProc::confirm — mentions in comments, strings and other
// functions do not count.
impl TimedVsToTo {
    fn pump(&mut self, effects: &mut ClientEffects) {
        while self.proc.label().is_some() {}
        while let Some(m) = self.proc.gpsnd() {
            effects.gpsnd.push(m);
        }
        // self.proc.confirm()
        while self.proc.order_head_is_safe() {
            self.proc.nextconfirm += 1;
            log(".confirm(");
        }
        while let Some(d) = self.proc.brcv() {
            effects.brcv.push(d);
        }
    }

    fn elsewhere(&mut self) {
        self.proc.confirm();
    }
}
